//! Deterministic fault injection for the simulated runtime.
//!
//! Real machines at the paper's target scale lose packets and ranks; the
//! simulated runtime loses neither. This module closes that gap with a
//! *replayable* adversary: a seeded [`FaultPlan`] decides — as a pure
//! function of `(seed, sender, destination, phase, packet ordinal,
//! simulated clock)` — whether a coalesced packet is dropped, duplicated
//! or delayed, and whether a rank crashes at a chosen simulated-clock
//! boundary. Because every decision is keyed on the simulated clock and
//! rank-local program-order quantities (never on wall-clock time or OS
//! scheduling), a failing run can be reproduced bit-for-bit from its
//! serialized plan alone.
//!
//! The three transport faults are *masked* faults: the messaging layer
//! retransmits dropped packets before the phase's quiescence counts are
//! posted, tags injected duplicates so receivers discard them unread, and
//! re-wires delayed packets after a later packet (reordering them). The
//! delivered message multiset is therefore unchanged — which is exactly
//! the property the solver's sort-before-fold determinism contract
//! (DESIGN.md §8) needs to hold bit-identically under injection.
//!
//! A crash is an *unmasked* fault: the victim rank unwinds out of its
//! closure at the chosen [`RankCtx::sim_sync`](crate::RankCtx::sim_sync)
//! boundary, the survivors diagnose the missing rank at their next
//! collective through the implicit `Shutdown` rendezvous (see
//! [`CollectiveKind::Shutdown`](crate::CollectiveKind::Shutdown)), and
//! [`run_with_config_faulted`](crate::run_with_config_faulted) reports
//! [`RunOutcome::Crashed`] so the caller can restart from its last
//! checkpoint (DESIGN.md §14).

use std::sync::atomic::AtomicU64;

use parking_lot::Mutex;

/// A rank crash scheduled at a simulated-clock boundary.
///
/// The crash fires at the first completed
/// [`sim_sync`](crate::RankCtx::sim_sync) whose post-sync clock is `>=
/// at_clock`. Keying on the simulated clock (not on sync indices) lets a
/// harness aim a crash just past an observed phase boundary and keeps the
/// trigger meaningful across code that adds or removes syncs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashPoint {
    /// The rank that crashes.
    pub rank: usize,
    /// Simulated-clock threshold (work units) arming the crash.
    pub at_clock: f64,
}

/// A deterministic, serializable fault schedule for one run.
///
/// Transport-fault rates are expressed as `one_in` divisors over a seeded
/// per-packet hash: `drop_one_in: 16` drops roughly one packet in 16,
/// `0` disables that fault entirely. Crashes are explicit
/// [`CrashPoint`]s; at most one fires per world (the earliest by
/// `(at_clock, rank)`), because the first crash tears the world down.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed decorrelating the per-packet fault decisions.
    pub seed: u64,
    /// Drop (and retransmit at end of phase) one packet in this many.
    /// `0` = never.
    pub drop_one_in: u64,
    /// Duplicate one packet in this many (receivers discard the injected
    /// copy unread). `0` = never.
    pub duplicate_one_in: u64,
    /// Delay one packet in this many past the next packet to the same
    /// destination (reordering them). `0` = never.
    pub delay_one_in: u64,
    /// Scheduled rank crashes.
    pub crashes: Vec<CrashPoint>,
}

/// The transport fault chosen for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PacketFault {
    /// Swallow the packet now; retransmit before quiescence counts post.
    Drop,
    /// Send the packet plus a tagged redundant copy.
    Duplicate,
    /// Hold the packet past the next packet to the same destination.
    Delay,
}

/// splitmix64 finalizer — the same mixer as
/// [`PerturbRng`](crate::sim::PerturbRng), reused so fault decisions are
/// high-quality functions of their keys without an RNG stream to keep in
/// lockstep.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a single scheduled crash and no transport faults.
    #[must_use]
    pub fn crash(rank: usize, at_clock: f64) -> Self {
        Self {
            crashes: vec![CrashPoint { rank, at_clock }],
            ..Self::default()
        }
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drop_one_in == 0
            && self.duplicate_one_in == 0
            && self.delay_one_in == 0
            && self.crashes.is_empty()
    }

    /// Removes one scheduled crash matching `(rank, at_clock)` bitwise —
    /// called by recovery drivers after the crash has fired so the
    /// re-execution survives it.
    pub fn disarm_crash(&mut self, rank: usize, at_clock: f64) {
        if let Some(i) = self
            .crashes
            .iter()
            .position(|c| c.rank == rank && c.at_clock.to_bits() == at_clock.to_bits())
        {
            self.crashes.remove(i);
        }
    }

    /// The crash that fires at post-sync clock `clock`, if any: the
    /// earliest armed crash by `(at_clock, rank)` — a total order, so
    /// every rank selects the same victim.
    #[must_use]
    pub(crate) fn next_crash(&self, clock: f64) -> Option<CrashPoint> {
        self.crashes
            .iter()
            .filter(|c| c.at_clock <= clock)
            .copied()
            .min_by_key(|c| (c.at_clock.to_bits(), c.rank))
    }

    /// The transport fault (if any) for the packet identified by
    /// `(src, dest, phase, ordinal)` sent at simulated clock
    /// `clock_bits`. Pure and rank-local: every rerun of the same program
    /// with the same plan faults the same packets.
    pub(crate) fn packet_fault(
        &self,
        src: u64,
        dest: u64,
        phase: u64,
        ordinal: u64,
        clock_bits: u64,
    ) -> Option<PacketFault> {
        if self.drop_one_in == 0 && self.duplicate_one_in == 0 && self.delay_one_in == 0 {
            return None;
        }
        let h = mix(self
            .seed
            .wrapping_add(src.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(dest.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(phase.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(ordinal.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(clock_bits));
        if self.drop_one_in != 0 && h.is_multiple_of(self.drop_one_in) {
            return Some(PacketFault::Drop);
        }
        let h2 = mix(h ^ 0xA5A5_A5A5_A5A5_A5A5);
        if self.duplicate_one_in != 0 && h2.is_multiple_of(self.duplicate_one_in) {
            return Some(PacketFault::Duplicate);
        }
        let h3 = mix(h2 ^ 0x5A5A_5A5A_5A5A_5A5A);
        if self.delay_one_in != 0 && h3.is_multiple_of(self.delay_one_in) {
            return Some(PacketFault::Delay);
        }
        None
    }
}

/// Counters of the faults a run actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped and retransmitted at end of phase.
    pub packets_dropped: u64,
    /// Packets sent with an injected redundant copy.
    pub packets_duplicated: u64,
    /// Packets delayed past a later packet to the same destination.
    pub packets_delayed: u64,
    /// Rank crashes fired (at most one per world run).
    pub crashes: u64,
}

impl FaultStats {
    /// Element-wise saturating sum, used by recovery drivers to fold the
    /// per-attempt counters.
    #[must_use]
    pub fn sum(&self, other: &Self) -> Self {
        Self {
            packets_dropped: self.packets_dropped.saturating_add(other.packets_dropped),
            packets_duplicated: self
                .packets_duplicated
                .saturating_add(other.packets_duplicated),
            packets_delayed: self.packets_delayed.saturating_add(other.packets_delayed),
            crashes: self.crashes.saturating_add(other.crashes),
        }
    }
}

/// The result of a fault-injected run
/// ([`run_with_config_faulted`](crate::run_with_config_faulted)).
#[derive(Debug)]
pub enum RunOutcome<R> {
    /// Every rank ran to completion (any transport faults were masked).
    Completed {
        /// Per-rank closure results, in rank order.
        results: Vec<R>,
        /// Aggregate communication counters.
        stats: crate::CommStats,
        /// Per-rank observed collective sequences (empty unless
        /// [`RuntimeConfig::record_protocol`](crate::RuntimeConfig::record_protocol)
        /// is set).
        logs: Vec<Vec<crate::CollectiveKind>>,
        /// Faults injected during the run.
        faults: FaultStats,
    },
    /// A scheduled crash fired; all per-rank state is gone. The caller
    /// decides whether to restart (typically from a checkpoint) with the
    /// fired crash disarmed via [`FaultPlan::disarm_crash`].
    Crashed {
        /// The rank that crashed.
        rank: usize,
        /// The [`CrashPoint::at_clock`] threshold of the crash that fired
        /// (pass back to [`FaultPlan::disarm_crash`]).
        at_clock: f64,
        /// Faults injected before the crash.
        faults: FaultStats,
    },
}

/// The wire unit of the messaging layer: a coalesced message batch plus
/// the fault layer's redundancy tag. Injected duplicate packets are
/// tagged `redundant` and carry no payload, so receivers can discard them
/// unread — delivery of a duplicate is *observably* impossible, not just
/// unlikely.
///
/// `(src, seq)` names the packet independently of when it reaches the
/// receiver's channel: `src` is the sending rank and `seq` the sender's
/// per-phase packet ordinal, assigned in logical send order before any
/// fault reorders the wire. The perturbed drain sorts on it so its
/// delivered order is a function of the seed alone.
pub(crate) struct Packet<M> {
    pub(crate) redundant: bool,
    pub(crate) src: usize,
    pub(crate) seq: u64,
    pub(crate) msgs: Vec<M>,
}

/// Per-world fault state: the immutable plan plus the record of the crash
/// that fired (if any), consulted by the protocol shadow to classify a
/// collective mismatch as rank loss.
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Set by the victim rank *before* it unwinds, read by every rank at
    /// the detection rendezvous (the intervening barrier orders the two).
    pub(crate) crashed: Mutex<Option<CrashPoint>>,
    pub(crate) drops: AtomicU64,
    pub(crate) dups: AtomicU64,
    pub(crate) delays: AtomicU64,
}

/// Panic payload of the victim rank: unwinds `f` at the chosen sim-sync
/// boundary. Caught (and silenced) by the runtime's rank-thread wrapper.
pub(crate) struct SimulatedCrash {
    #[allow(dead_code)] // diagnostic payload, read by Debug formatting only
    pub(crate) rank: usize,
}

/// Panic payload of a surviving rank whose collective rendezvous
/// diagnosed a crashed peer. Caught (and silenced) by the runtime's
/// rank-thread wrapper.
pub(crate) struct RankLost {
    #[allow(dead_code)] // diagnostic payload, read by Debug formatting only
    pub(crate) rank: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_faults_are_deterministic_and_seed_sensitive() {
        let plan_a = FaultPlan {
            seed: 7,
            drop_one_in: 4,
            duplicate_one_in: 4,
            delay_one_in: 4,
            ..FaultPlan::default()
        };
        let plan_b = FaultPlan {
            seed: 8,
            ..plan_a.clone()
        };
        let sweep = |plan: &FaultPlan| {
            (0..256u64)
                .map(|i| plan.packet_fault(i % 4, (i + 1) % 4, i / 16, i, 0x4000_0000_0000_0000))
                .collect::<Vec<_>>()
        };
        assert_eq!(sweep(&plan_a), sweep(&plan_a), "same plan must replay");
        assert_ne!(sweep(&plan_a), sweep(&plan_b), "seed must decorrelate");
        assert!(
            sweep(&plan_a).iter().any(Option::is_some),
            "1-in-4 rates over 256 packets must fire"
        );
    }

    #[test]
    fn next_crash_picks_the_earliest_by_clock_then_rank() {
        let plan = FaultPlan {
            crashes: vec![
                CrashPoint {
                    rank: 3,
                    at_clock: 10.0,
                },
                CrashPoint {
                    rank: 1,
                    at_clock: 10.0,
                },
                CrashPoint {
                    rank: 0,
                    at_clock: 5.0,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.next_crash(4.0), None);
        assert_eq!(
            plan.next_crash(7.0),
            Some(CrashPoint {
                rank: 0,
                at_clock: 5.0
            })
        );
        let mut plan = plan;
        plan.disarm_crash(0, 5.0);
        assert_eq!(
            plan.next_crash(20.0),
            Some(CrashPoint {
                rank: 1,
                at_clock: 10.0
            })
        );
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.packet_fault(0, 1, 0, 0, 0), None);
        assert_eq!(plan.next_crash(f64::MAX), None);
    }
}
