//! Engine configuration and execution policies.

use std::fmt;
use symple_net::{Backend, CostModel, FaultPlan, TraceLevel, WireCodec};

/// Why an [`EngineConfig`] failed [`EngineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `machines` was 0 — a cluster needs at least one machine.
    ZeroMachines,
    /// `buffer_groups` was 0 — double buffering needs at least one group.
    ZeroBufferGroups,
    /// `threads` was 0 — the intra-machine executor needs at least one.
    ZeroThreads,
    /// `partition_alpha` was NaN, infinite or negative — the partition's
    /// balance degenerates (under NaN every vertex lands on the last
    /// machine).
    InvalidPartitionAlpha,
    /// The fault plan's rates were not probabilities; carries the
    /// offending knob's message.
    InvalidFaultPlan(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMachines => {
                write!(f, "machines must be at least 1 (got 0)")
            }
            ConfigError::ZeroBufferGroups => {
                write!(f, "buffer_groups must be at least 1 (got 0)")
            }
            ConfigError::ZeroThreads => {
                write!(f, "threads must be at least 1 (got 0)")
            }
            ConfigError::InvalidPartitionAlpha => {
                write!(f, "partition_alpha must be finite and non-negative")
            }
            ConfigError::InvalidFaultPlan(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which of the paper's three evaluated systems the engine emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// SympleGraph: circulant scheduling with dependency propagation.
    /// The two communication optimisations of §5.2/§5.3 can be toggled
    /// independently, which is how Figure 11's ablation is produced.
    SympleGraph {
        /// §5.2: propagate dependency only for high-degree vertices.
        differentiated: bool,
        /// §5.3: split each step into groups and send each group's
        /// dependency message as soon as the group finishes.
        double_buffering: bool,
    },
    /// Gemini baseline: identical signal–slot execution with no dependency
    /// communication — the paper notes Gemini "can be considered as a
    /// special case without dependency communication" (§5.1). UDF `break`s
    /// still take effect *within* a machine's local edge segment.
    Gemini,
    /// Simplified D-Galois (Gluon) stand-in: Gemini-style local compute
    /// plus a Gluon-style second synchronisation phase (masters broadcast
    /// updated values back to mirrors) and a BSP barrier per iteration.
    /// See DESIGN.md §2 for the fidelity discussion.
    Galois,
}

impl Policy {
    /// Full SympleGraph with both optimisations on (the paper's default).
    pub fn symple() -> Self {
        Policy::SympleGraph {
            differentiated: true,
            double_buffering: true,
        }
    }

    /// SympleGraph with both optimisations off (Figure 11's baseline,
    /// "circulant scheduling only").
    pub fn symple_basic() -> Self {
        Policy::SympleGraph {
            differentiated: false,
            double_buffering: false,
        }
    }

    /// Does this policy propagate dependency between machines?
    pub fn propagates_dependency(&self) -> bool {
        matches!(self, Policy::SympleGraph { .. })
    }
}

/// Which executor runs checked UDFs in the per-edge hot loop.
///
/// Both executors implement the same semantics down to wrapping integer
/// arithmetic and NaN-comparison panics; outputs, `WorkStats`,
/// `CommStats`, and virtual time are bit-identical across them. The
/// interpreter survives as the differential-testing reference; the
/// bytecode VM is the production path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UdfExec {
    /// Walk the checked AST directly (`symple-udf`'s tree interpreter).
    Interp,
    /// Lower the checked AST, once per program against its property
    /// store, to ops specialised to their operands' types, optimise them,
    /// and dispatch that flat program per edge. Falls back to the
    /// interpreter for a program past a register or carried-local limit
    /// (lint W006) or one that does not lower against its store (a
    /// missing property, an array of a type it cannot read).
    #[default]
    Bytecode,
}

/// How carried dependency values are sized on the wire.
///
/// Outputs, `WorkStats`, and `CommStats` are bit-identical between the
/// two modes — the certificate proves every value round-trips exactly
/// through the narrowed encoding — but dependency wire bytes (and the
/// virtual time they cost) shrink under `Certified`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepWidth {
    /// Eight bytes per carried value regardless of its proven range (the
    /// seed layout, kept as the reference the narrowed path is validated
    /// against).
    Wide,
    /// Use the abstract-interpretation certificate: each carried value
    /// ships in the narrowest width its proven range fits (1/2/4/8
    /// bytes), and slots whose skip bit provably latches omit their dead
    /// values entirely.
    #[default]
    Certified,
}

/// Configuration for a distributed run.
///
/// # Example
///
/// ```
/// use symple_core::{EngineConfig, Policy};
/// let cfg = EngineConfig::new(8, Policy::symple());
/// assert_eq!(cfg.machines, 8);
/// assert_eq!(cfg.degree_threshold, 32);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of simulated machines.
    pub machines: usize,
    /// Which system to emulate.
    pub policy: Policy,
    /// Degree threshold for differentiated propagation (§6: 32).
    pub degree_threshold: usize,
    /// Number of double-buffering groups per step (§6 generalises beyond
    /// two; used only when double buffering is on).
    pub buffer_groups: usize,
    /// Virtual-time cost model (which testbed to emulate).
    pub cost: CostModel,
    /// Extra per-vertex weight when balancing the partition by
    /// `alpha · |V_i| + |E_i|` (Gemini's locality-aware chunking). Must be
    /// finite and non-negative ([`ConfigError::InvalidPartitionAlpha`]).
    pub partition_alpha: f64,
    /// Worker threads per simulated machine for the chunked intra-machine
    /// executor (Gemini's multicore edge loop). Outputs, `WorkStats`, and
    /// byte streams are bit-identical for any value — only host wall time
    /// and the modelled critical-path compute charge change. The
    /// executor's chunk is the constant [`crate::EXEC_CHUNK`].
    pub threads: usize,
    /// How much the run records about itself: `Off` (nothing),
    /// `Metrics` (categorized counters, the default — negligible cost), or
    /// `Full` (also per-event spans for chrome://tracing export).
    pub trace_level: TraceLevel,
    /// Encoding applied to remote update and dependency messages:
    /// `Flat` (the seed's fixed-size record layouts, byte-compatible
    /// default) or `Adaptive` (per message, the byte-minimal of flat /
    /// dense bitmap / sparse delta-varint). The choice is a pure function
    /// of each payload's content, so outputs and `WorkStats` are
    /// bit-identical across codecs — only wire bytes (and the virtual
    /// time they cost) change.
    pub wire_codec: WireCodec,
    /// Deterministic fault plan injected below the engine (default:
    /// `None`, a perfect network). With a plan installed the reliable
    /// delivery layer (its retry protocol is fixed: see
    /// [`symple_net::RETRY_ATTEMPTS`]) keeps outputs, `WorkStats`, and
    /// trace structure bit-identical to the fault-free run — only the
    /// retransmit/ack counters in `CommStats` and the virtual clock absorb
    /// the faults.
    pub fault_plan: Option<FaultPlan>,
    /// Which transport carries inter-machine messages: `Sim` (unbounded
    /// channels, the bit-deterministic default) or `Thread` (bounded
    /// channels with real backpressure and measured per-machine wall
    /// time). Outputs, `WorkStats`, `CommStats`, and virtual time are
    /// bit-identical across backends — only wall-clock measurements
    /// change.
    pub backend: Backend,
    /// Which executor runs checked UDFs in the per-edge hot loop:
    /// `Bytecode` (register VM, the default) or `Interp` (the AST
    /// tree-walker kept as the differential reference). Bit-identical
    /// outputs, `WorkStats`, `CommStats`, and virtual time either way —
    /// only host wall time changes.
    pub udf_exec: UdfExec,
    /// Wire sizing for carried dependency values: `Certified` (narrowed
    /// to the abstract-interpretation certificate's proven widths, the
    /// default) or `Wide` (the seed's 8-bytes-per-value reference
    /// layout). Outputs and `WorkStats` are bit-identical either way.
    pub dep_width: DepWidth,
}

impl EngineConfig {
    /// Creates a configuration with the paper's defaults: threshold 32,
    /// two buffer groups, Cluster-A cost model.
    pub fn new(machines: usize, policy: Policy) -> Self {
        EngineConfig {
            machines,
            policy,
            degree_threshold: 32,
            buffer_groups: 2,
            cost: CostModel::cluster_a(),
            partition_alpha: 8.0,
            threads: 1,
            trace_level: TraceLevel::Metrics,
            wire_codec: WireCodec::Flat,
            fault_plan: None,
            backend: Backend::Sim,
            udf_exec: UdfExec::Bytecode,
            dep_width: DepWidth::Certified,
        }
    }

    /// Sets the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the degree threshold for differentiated propagation.
    pub fn degree_threshold(mut self, t: usize) -> Self {
        self.degree_threshold = t;
        self
    }

    /// Sets the number of double-buffering groups.
    pub fn buffer_groups(mut self, g: usize) -> Self {
        self.buffer_groups = g;
        self
    }

    /// Sets the trace level.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Sets the intra-machine executor thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the wire codec for remote update and dependency messages.
    pub fn wire_codec(mut self, codec: WireCodec) -> Self {
        self.wire_codec = codec;
        self
    }

    /// Installs (or clears, with `None`) a deterministic fault plan.
    pub fn fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.fault_plan = plan.into();
        self
    }

    /// Sets the transport backend carrying inter-machine messages.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the UDF executor (bytecode VM vs reference interpreter).
    pub fn udf_exec(mut self, exec: UdfExec) -> Self {
        self.udf_exec = exec;
        self
    }

    /// Sets the dependency wire width mode (wide vs certified).
    pub fn dep_width(mut self, width: DepWidth) -> Self {
        self.dep_width = width;
        self
    }

    /// Does this run adaptively re-encode remote messages?
    pub fn adaptive_wire(&self) -> bool {
        self.wire_codec == WireCodec::Adaptive
    }

    /// Validates the configuration, reporting the first problem found.
    ///
    /// [`crate::run_spmd`] calls this before spawning the cluster and
    /// surfaces any error in its panic message; call it yourself to handle
    /// invalid configurations gracefully.
    ///
    /// ```
    /// use symple_core::{ConfigError, EngineConfig, Policy};
    /// let bad = EngineConfig::new(0, Policy::Gemini);
    /// assert_eq!(bad.validate(), Err(ConfigError::ZeroMachines));
    /// assert!(EngineConfig::new(4, Policy::Gemini).validate().is_ok());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.machines == 0 {
            return Err(ConfigError::ZeroMachines);
        }
        if self.buffer_groups == 0 {
            return Err(ConfigError::ZeroBufferGroups);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if !(self.partition_alpha.is_finite() && self.partition_alpha >= 0.0) {
            return Err(ConfigError::InvalidPartitionAlpha);
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(ConfigError::InvalidFaultPlan)?;
        }
        Ok(())
    }

    /// Effective group count for a step: 1 unless double buffering is on.
    pub fn effective_groups(&self) -> usize {
        match self.policy {
            Policy::SympleGraph {
                double_buffering: true,
                ..
            } => self.buffer_groups,
            _ => 1,
        }
    }

    /// Effective differentiated-propagation flag.
    pub fn differentiated(&self) -> bool {
        matches!(
            self.policy,
            Policy::SympleGraph {
                differentiated: true,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = EngineConfig::new(16, Policy::symple());
        assert_eq!(cfg.degree_threshold, 32);
        assert_eq!(cfg.buffer_groups, 2);
        assert_eq!(cfg.effective_groups(), 2);
        assert!(cfg.differentiated());
    }

    #[test]
    fn gemini_has_no_dep_and_one_group() {
        let cfg = EngineConfig::new(4, Policy::Gemini);
        assert!(!cfg.policy.propagates_dependency());
        assert_eq!(cfg.effective_groups(), 1);
        assert!(!cfg.differentiated());
    }

    #[test]
    fn basic_symple_disables_optimisations() {
        let cfg = EngineConfig::new(4, Policy::symple_basic());
        assert!(cfg.policy.propagates_dependency());
        assert_eq!(cfg.effective_groups(), 1);
        assert!(!cfg.differentiated());
    }

    #[test]
    fn builder_setters() {
        let cfg = EngineConfig::new(2, Policy::Gemini)
            .degree_threshold(8)
            .buffer_groups(4)
            .trace_level(TraceLevel::Full);
        assert_eq!(cfg.degree_threshold, 8);
        assert_eq!(cfg.buffer_groups, 4);
        assert_eq!(cfg.trace_level, TraceLevel::Full);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn wire_codec_defaults_to_flat() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert_eq!(cfg.wire_codec, WireCodec::Flat);
        assert!(!cfg.adaptive_wire());
        let cfg = cfg.wire_codec(WireCodec::Adaptive);
        assert!(cfg.adaptive_wire());
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_machines_invalid() {
        let err = EngineConfig::new(0, Policy::Gemini).validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroMachines);
        assert!(err.to_string().contains("machines"));
    }

    #[test]
    fn zero_buffer_groups_invalid() {
        let err = EngineConfig::new(2, Policy::Gemini)
            .buffer_groups(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroBufferGroups);
    }

    #[test]
    fn executor_defaults_are_sequential() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert_eq!(cfg.threads, 1);
        let cfg = cfg.threads(8);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn fault_knobs_default_off_and_validate() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert!(cfg.fault_plan.is_none());
        let cfg = cfg.fault_plan(FaultPlan::chaos(42));
        assert!(cfg.fault_plan.unwrap().injects());
        assert_eq!(cfg.validate(), Ok(()));
        let cleared = cfg.fault_plan(None);
        assert!(cleared.fault_plan.is_none());
    }

    #[test]
    fn bad_fault_knobs_are_rejected() {
        let err = EngineConfig::new(2, Policy::Gemini)
            .fault_plan(FaultPlan::new(0).drop_rate(1.5))
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("drop_rate"));
    }

    #[test]
    fn partition_alpha_must_be_finite_and_non_negative() {
        let with_alpha = |alpha: f64| {
            let mut cfg = EngineConfig::new(2, Policy::Gemini);
            cfg.partition_alpha = alpha;
            cfg.validate()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e300] {
            assert_eq!(
                with_alpha(bad),
                Err(ConfigError::InvalidPartitionAlpha),
                "{bad}"
            );
        }
        let err = with_alpha(f64::NAN).unwrap_err();
        assert!(err.to_string().contains("partition_alpha"));
        // The default and the values the config fuzzer draws stay valid.
        for good in [0.0, 1.0, 8.0, 1.5] {
            assert_eq!(with_alpha(good), Ok(()), "{good}");
        }
    }

    #[test]
    fn backend_defaults_to_sim() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert_eq!(cfg.backend, Backend::Sim);
        let cfg = cfg.backend(Backend::Thread);
        assert_eq!(cfg.backend, Backend::Thread);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn udf_exec_defaults_to_bytecode() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert_eq!(cfg.udf_exec, UdfExec::Bytecode);
        let cfg = cfg.udf_exec(UdfExec::Interp);
        assert_eq!(cfg.udf_exec, UdfExec::Interp);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn dep_width_defaults_to_certified() {
        let cfg = EngineConfig::new(4, Policy::symple());
        assert_eq!(cfg.dep_width, DepWidth::Certified);
        let cfg = cfg.dep_width(DepWidth::Wide);
        assert_eq!(cfg.dep_width, DepWidth::Wide);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(DepWidth::default(), DepWidth::Certified);
    }

    #[test]
    fn readme_knob_table_lists_every_field_in_order() {
        let src = include_str!("config.rs");
        let body = src.split("pub struct EngineConfig {").nth(1).unwrap();
        let body = body.split("\n}").next().unwrap();
        let fields: Vec<&str> = body
            .lines()
            .filter_map(|l| l.trim().strip_prefix("pub ")?.split(':').next())
            .collect();
        let readme = include_str!("../../../README.md");
        let table = readme.split("| Knob | Default | Effect |").nth(1).unwrap();
        let knobs: Vec<&str> = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        assert!(!fields.is_empty());
        assert_eq!(knobs, fields, "README's knob table vs EngineConfig");
    }

    #[test]
    fn zero_threads_invalid() {
        let err = EngineConfig::new(2, Policy::Gemini)
            .threads(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroThreads);
        assert!(err.to_string().contains("threads"));
    }
}
