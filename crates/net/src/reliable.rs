//! Deterministic fault injection and the reliable-delivery schedule.
//!
//! The simulated cluster's engine contract is exactly-once delivery of
//! each message, and a tag names one message from `src` to `dst`. A
//! [`FaultPlan`] breaks that contract *below* the engine — dropping,
//! delaying, duplicating, and reordering individual message copies — and
//! the ack/retry protocol in `cluster.rs` restores it (the receiver drops
//! a copy whose `(src, tag)` it already holds or has delivered), so the
//! engine's outputs stay bit-identical while the `CommStats` counters
//! and the virtual clock absorb the damage.
//!
//! Everything here is an **oracle**: the fate of every transmission
//! attempt is a pure function of `(seed, src, dst, tag, attempt)`
//! through a splitmix64-style hash, so the sender can compute the entire
//! retransmission schedule of a message at send time — which attempts
//! time out, when the first surviving copy departs, whether the network
//! duplicates it — without timer threads or randomness. Two runs with the
//! same plan are bit-identical; reruns with `attempt` bumped model the
//! independent fate of each retransmitted copy.
//!
//! # Example
//!
//! ```
//! use symple_net::{FaultPlan, Tag, TagKind};
//!
//! let plan = FaultPlan::new(42).drop_rate(0.3).dup_rate(0.2);
//! let tag = Tag::new(TagKind::User, 0, 0);
//! // The schedule for one message is deterministic: same inputs, same
//! // retransmit count and delivery delay, forever.
//! let a = plan.schedule(1.0, 0, 1, tag).unwrap();
//! let b = plan.schedule(1.0, 0, 1, tag).unwrap();
//! assert_eq!(a.retransmits, b.retransmits);
//! assert_eq!(a.extra_delay, b.extra_delay);
//! ```

use crate::{Tag, TagKind};

/// Retransmission timeout of a message's first copy, in retry quanta
/// ([`crate::CostModel::retry_timeout`], the modelled round trip of the
/// copy and its ack).
pub const RETRY_TIMEOUT_QUANTA: f64 = 2.0;

/// Factor each expired retransmission timeout multiplies the next by.
pub const RETRY_BACKOFF: f64 = 2.0;

/// Copies sent before a message is given up: when every one of them is
/// dropped the run fails with [`crate::Cause::Unreachable`] instead of
/// retrying forever.
pub const RETRY_ATTEMPTS: u32 = 20;

/// A seeded, deterministic fault plan for the simulated network.
///
/// Each transmission attempt of each `(src, dst, tag)` message rolls its
/// fate from the plan's hash: dropped in transit,
/// delivered late (by whole RTO-sized steps, or by a sub-step "reorder"
/// nudge that lands it behind younger traffic), and/or duplicated by the
/// network. Rates are probabilities in `[0, 1]` over the hash space; the
/// same plan always injures the same copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every fate roll.
    pub seed: u64,
    /// Probability a copy is dropped in transit (triggering the sender's
    /// ack timeout and a retransmit).
    pub drop_rate: f64,
    /// Probability a delivered copy is duplicated by the network (the
    /// receiver discards the extra copy by its `(src, tag)`).
    pub dup_rate: f64,
    /// Probability a delivered copy is delayed by `1..=max_delay_steps`
    /// RTO-sized steps.
    pub delay_rate: f64,
    /// Upper bound on the delay step count (default 4).
    pub max_delay_steps: u32,
    /// Probability a delivered copy is physically reordered behind the
    /// traffic sent just after it (plus a half-step arrival delay).
    pub reorder_rate: f64,
}

/// Fate of a single transmission attempt, rolled from the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptFate {
    /// Lost in transit: the sender's ack timer will expire.
    Dropped,
    /// Delivered, possibly late, possibly twice.
    Delivered {
        /// Whole RTO-sized steps of extra arrival delay.
        delay_steps: u32,
        /// Physically reordered behind younger traffic.
        reorder: bool,
        /// The network emits a second copy.
        duplicate: bool,
    },
}

/// The resolved delivery schedule of one message under a plan: how many
/// copies timed out before one survived, how late the surviving copy
/// departs, and whether a duplicate trails it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Copies resent after an ack timeout (0 when the first copy lands).
    pub retransmits: u32,
    /// Virtual seconds added to the surviving copy's departure: the sum of
    /// expired RTOs plus any injected delay.
    pub extra_delay: f64,
    /// If the network duplicated the surviving copy, the duplicate's extra
    /// departure delay relative to the original.
    pub duplicate_delay: Option<f64>,
    /// Whether the surviving copy is physically reordered behind the
    /// sender's subsequent traffic.
    pub reorder: bool,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tag_code(kind: TagKind) -> u64 {
    match kind {
        TagKind::Dep => 0,
        TagKind::Update => 1,
        TagKind::Collective => 2,
        TagKind::User => 3,
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults; stack the rate builders
    /// on top.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            max_delay_steps: 4,
            reorder_rate: 0.0,
        }
    }

    /// A canonical drop + duplicate + delay + reorder mix for smoke tests:
    /// every fault class is exercised at rates the [`RETRY_ATTEMPTS`]
    /// budget absorbs with margin.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .drop_rate(0.2)
            .dup_rate(0.2)
            .delay_rate(0.15)
            .reorder_rate(0.2)
    }

    /// Sets the drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Sets the duplication probability.
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.dup_rate = p;
        self
    }

    /// Sets the delay probability.
    pub fn delay_rate(mut self, p: f64) -> Self {
        self.delay_rate = p;
        self
    }

    /// Sets the maximum delay in RTO-sized steps.
    pub fn max_delay_steps(mut self, steps: u32) -> Self {
        self.max_delay_steps = steps;
        self
    }

    /// Sets the reorder probability.
    pub fn reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Validates the plan: every rate must be a probability.
    pub fn validate(&self) -> Result<(), &'static str> {
        for (rate, what) in [
            (self.drop_rate, "fault_plan.drop_rate must be in [0, 1]"),
            (self.dup_rate, "fault_plan.dup_rate must be in [0, 1]"),
            (self.delay_rate, "fault_plan.delay_rate must be in [0, 1]"),
            (
                self.reorder_rate,
                "fault_plan.reorder_rate must be in [0, 1]",
            ),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(what);
            }
        }
        Ok(())
    }

    /// Does this plan ever injure a message?
    pub fn injects(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.reorder_rate > 0.0
    }

    /// A uniform roll in `[0, 1)` for one (attempt, aspect) of a message.
    fn roll(&self, src: usize, dst: usize, tag: Tag, attempt: u32, salt: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        for field in [
            src as u64,
            dst as u64,
            tag_code(tag.kind),
            tag.a,
            tag.b as u64,
            0, // a retired per-tag sequence number, always 0: fates stay put
            attempt as u64,
        ] {
            h = splitmix64(h ^ field);
        }
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The fate of transmission attempt `attempt` of the `(src, dst, tag)`
    /// message.
    pub(crate) fn fate(&self, src: usize, dst: usize, tag: Tag, attempt: u32) -> AttemptFate {
        if self.roll(src, dst, tag, attempt, 0) < self.drop_rate {
            return AttemptFate::Dropped;
        }
        let delay_steps =
            if self.max_delay_steps > 0 && self.roll(src, dst, tag, attempt, 1) < self.delay_rate {
                let spread = self.roll(src, dst, tag, attempt, 2);
                1 + (spread * self.max_delay_steps as f64) as u32
            } else {
                0
            };
        AttemptFate::Delivered {
            delay_steps: delay_steps.min(self.max_delay_steps),
            reorder: self.roll(src, dst, tag, attempt, 3) < self.reorder_rate,
            duplicate: self.roll(src, dst, tag, attempt, 4) < self.dup_rate,
        }
    }

    /// Resolves the whole retransmission schedule of the `(src, dst, tag)`
    /// message. `quantum` is the modelled round-trip time the RTO scales
    /// from ([`crate::CostModel::retry_timeout`]). `None` means all
    /// [`RETRY_ATTEMPTS`] copies were dropped.
    pub fn schedule(&self, quantum: f64, src: usize, dst: usize, tag: Tag) -> Option<Delivery> {
        let mut waited = 0.0_f64;
        let mut rto = RETRY_TIMEOUT_QUANTA * quantum;
        for attempt in 0..RETRY_ATTEMPTS {
            match self.fate(src, dst, tag, attempt) {
                AttemptFate::Dropped => {
                    waited += rto;
                    rto *= RETRY_BACKOFF;
                }
                AttemptFate::Delivered {
                    delay_steps,
                    reorder,
                    duplicate,
                } => {
                    let mut extra = waited + delay_steps as f64 * quantum;
                    if reorder {
                        extra += 0.5 * quantum;
                    }
                    return Some(Delivery {
                        retransmits: attempt,
                        extra_delay: extra,
                        duplicate_delay: duplicate.then_some(0.25 * quantum),
                        reorder,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_tag(a: u64) -> Tag {
        Tag::new(TagKind::User, a, 0)
    }

    #[test]
    fn defaults_are_faultless_and_valid() {
        let plan = FaultPlan::new(7);
        assert!(!plan.injects());
        assert_eq!(plan.validate(), Ok(()));
        let d = plan.schedule(1.0, 0, 1, user_tag(0)).unwrap();
        assert_eq!(d.retransmits, 0);
        assert_eq!(d.extra_delay, 0.0);
        assert_eq!(d.duplicate_delay, None);
        assert!(!d.reorder);
    }

    #[test]
    fn rates_are_validated() {
        assert!(FaultPlan::new(0).drop_rate(1.5).validate().is_err());
        assert!(FaultPlan::new(0).dup_rate(-0.1).validate().is_err());
        assert!(FaultPlan::new(0).delay_rate(2.0).validate().is_err());
        assert!(FaultPlan::new(0).reorder_rate(f64::NAN).validate().is_err());
        assert!(FaultPlan::chaos(0).validate().is_ok());
        assert!(FaultPlan::chaos(0).injects());
    }

    #[test]
    fn fates_are_deterministic_and_attempt_independent() {
        let plan = FaultPlan::chaos(1234);
        for a in 0..50 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.fate(0, 1, user_tag(a), attempt),
                    plan.fate(0, 1, user_tag(a), attempt),
                    "same roll must give the same fate"
                );
            }
        }
        // Different directions and different seeds roll different fates
        // at least somewhere over 50 tags.
        let other_seed = FaultPlan::chaos(99);
        let fate = |plan: FaultPlan, src, dst, a| plan.fate(src, dst, user_tag(a), 0);
        assert!((0..50).any(|a| fate(plan, 0, 1, a) != fate(plan, 1, 0, a)));
        assert!((0..50).any(|a| fate(plan, 0, 1, a) != fate(other_seed, 0, 1, a)));
    }

    #[test]
    fn always_drop_exhausts_attempts() {
        let plan = FaultPlan::new(5).drop_rate(1.0);
        assert_eq!(
            plan.schedule(1.0, 0, 1, user_tag(0)),
            None,
            "every copy dropped: the schedule reports exhaustion"
        );
    }

    #[test]
    fn retransmit_waits_follow_exponential_backoff() {
        // Half the copies drop; find a message whose first two attempts
        // both dropped and check the accumulated timer delay.
        let plan = FaultPlan::new(17).drop_rate(0.5);
        let quantum = 0.5;
        let mut seen_two = false;
        for a in 0..200 {
            let d = plan.schedule(quantum, 0, 1, user_tag(a)).unwrap();
            if d.retransmits == 2 {
                // rto0 + rto1 = q·ts + q·ts·backoff = 1.0 + 2.0
                let base = RETRY_TIMEOUT_QUANTA * quantum;
                assert!(d.extra_delay >= base * (1.0 + RETRY_BACKOFF) - 1e-12);
                seen_two = true;
                break;
            }
        }
        assert!(seen_two, "0.5 drop rate must double-drop within 200 tries");
    }

    #[test]
    fn delay_steps_are_bounded() {
        let plan = FaultPlan::new(3).delay_rate(1.0).max_delay_steps(2);
        for a in 0..100 {
            let d = plan.schedule(1.0, 0, 1, user_tag(a)).unwrap();
            assert_eq!(d.retransmits, 0);
            assert!(
                d.extra_delay >= 1.0 - 1e-12 && d.extra_delay <= 2.5 + 1e-12,
                "delay {} outside 1..=2 steps (+ possible reorder half)",
                d.extra_delay
            );
        }
    }

    #[test]
    fn duplicates_trail_the_original() {
        let plan = FaultPlan::new(11).dup_rate(1.0);
        let d = plan.schedule(2.0, 0, 1, user_tag(0)).unwrap();
        assert_eq!(d.duplicate_delay, Some(0.5));
    }

    #[test]
    fn zero_quantum_still_counts_faults() {
        // Under CostModel::zero the timers are instantaneous but the
        // retransmit/dup structure is unchanged.
        let plan = FaultPlan::chaos(8);
        let mut rts = 0u32;
        let mut dups = 0u32;
        for a in 0..100 {
            let d = plan.schedule(0.0, 0, 1, user_tag(a)).unwrap();
            assert_eq!(d.extra_delay, 0.0);
            rts += d.retransmits;
            dups += u32::from(d.duplicate_delay.is_some());
        }
        assert!(rts > 0 && dups > 0);
    }
}
