//! Deterministic collectives: allreduce (scalar and element-wise vector),
//! allgather of f64 vectors, and logical reductions.
//!
//! Protocol: every rank writes its contribution into its slot, a barrier
//! guarantees all writes are visible, every rank reads/folds in rank order
//! (making floating-point reductions deterministic), and a second barrier
//! prevents a fast rank from overwriting slots of the current collective
//! while slow ranks are still reading.

use crate::world::{CollectiveKind, RankCtx};
use std::panic::Location;

impl<'w, M: Send> RankCtx<'w, M> {
    /// Sum of every rank's `x`, folded in rank order.
    #[must_use]
    #[track_caller]
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        self.reduce_f64(x, |acc, v| acc + v, 0.0, Location::caller())
    }

    /// Maximum of every rank's `x`.
    #[must_use]
    #[track_caller]
    pub fn allreduce_max(&self, x: f64) -> f64 {
        self.reduce_f64(x, f64::max, f64::NEG_INFINITY, Location::caller())
    }

    /// Minimum of every rank's `x`.
    #[must_use]
    #[track_caller]
    pub fn allreduce_min(&self, x: f64) -> f64 {
        self.reduce_f64(x, f64::min, f64::INFINITY, Location::caller())
    }

    /// Sum of every rank's `x` (integer).
    #[must_use]
    #[track_caller]
    pub fn allreduce_sum_u64(&self, x: u64) -> u64 {
        self.reduce_u64(x, |acc, v| acc + v, 0, Location::caller())
    }

    /// Maximum of every rank's `x` (integer).
    #[must_use]
    #[track_caller]
    pub fn allreduce_max_u64(&self, x: u64) -> u64 {
        self.reduce_u64(x, u64::max, 0, Location::caller())
    }

    /// Element-wise sum of equal-length vectors across ranks. Every rank
    /// must pass the same length.
    #[must_use]
    #[track_caller]
    pub fn allreduce_sum_vec(&self, xs: &[f64]) -> Vec<f64> {
        {
            let mut slots = self.world.vec_slots.lock();
            slots[self.rank].clear();
            slots[self.rank].extend_from_slice(xs);
        }
        self.enter_collective(CollectiveKind::AllreduceSumVec, Location::caller());
        let out = {
            let slots = self.world.vec_slots.lock();
            let len = slots[0].len();
            let mut out = vec![0.0f64; len];
            for r in 0..self.world.p {
                assert_eq!(
                    slots[r].len(),
                    len,
                    "allreduce_sum_vec length mismatch at rank {r}"
                );
                for (o, &v) in out.iter_mut().zip(slots[r].iter()) {
                    *o += v;
                }
            }
            out
        };
        // Bandwidth charge: element-wise reduction touches p*len values,
        // modeled at a tenth of a message per element received.
        self.charge(out.len() as f64 * 0.1 * self.world.charge_per_message);
        self.sim_sync();
        out
    }

    /// Concatenation of every rank's `xs`, in rank order.
    #[must_use]
    #[track_caller]
    pub fn allgather_f64(&self, xs: &[f64]) -> Vec<f64> {
        {
            let mut slots = self.world.vec_slots.lock();
            slots[self.rank].clear();
            slots[self.rank].extend_from_slice(xs);
        }
        self.enter_collective(CollectiveKind::AllgatherF64, Location::caller());
        let out = {
            let slots = self.world.vec_slots.lock();
            let total: usize = slots.iter().map(Vec::len).sum();
            let mut out = Vec::with_capacity(total);
            for r in 0..self.world.p {
                out.extend_from_slice(&slots[r]);
            }
            out
        };
        // Bandwidth charge: every rank receives the concatenation.
        self.charge(out.len() as f64 * 0.1 * self.world.charge_per_message);
        self.sim_sync();
        out
    }

    /// Rank 0's value, broadcast to everyone.
    #[must_use]
    #[track_caller]
    pub fn broadcast_f64(&self, x: f64) -> f64 {
        {
            let mut slots = self.world.f64_slots.lock();
            slots[self.rank] = x;
        }
        self.enter_collective(CollectiveKind::BroadcastF64, Location::caller());
        let out = self.world.f64_slots.lock()[0];
        self.sim_sync();
        out
    }

    fn reduce_f64(
        &self,
        x: f64,
        fold: impl Fn(f64, f64) -> f64,
        init: f64,
        loc: &'static Location<'static>,
    ) -> f64 {
        {
            let mut slots = self.world.f64_slots.lock();
            slots[self.rank] = x;
        }
        self.enter_collective(CollectiveKind::ReduceF64, loc);
        let out = {
            let slots = self.world.f64_slots.lock();
            slots.iter().copied().fold(init, fold)
        };
        self.sim_sync();
        out
    }

    fn reduce_u64(
        &self,
        x: u64,
        fold: impl Fn(u64, u64) -> u64,
        init: u64,
        loc: &'static Location<'static>,
    ) -> u64 {
        {
            let mut slots = self.world.u64_slots.lock();
            slots[self.rank] = x;
        }
        self.enter_collective(CollectiveKind::ReduceU64, loc);
        let out = {
            let slots = self.world.u64_slots.lock();
            slots.iter().copied().fold(init, fold)
        };
        self.sim_sync();
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::world::run;

    #[test]
    fn allreduce_sum_matches_sequential_fold() {
        let out = run::<(), _, _>(6, |ctx| ctx.allreduce_sum(ctx.rank() as f64 + 0.5));
        // 0.5 + 1.5 + ... + 5.5 = 18.
        assert!(out.iter().all(|&x| (x - 18.0).abs() < 1e-12));
    }

    #[test]
    fn allreduce_minmax() {
        let out = run::<(), _, _>(5, |ctx| {
            let max = ctx.allreduce_max(ctx.rank() as f64);
            let min = ctx.allreduce_min(ctx.rank() as f64);
            (min, max)
        });
        assert!(out.iter().all(|&(lo, hi)| lo == 0.0 && hi == 4.0));
    }

    #[test]
    fn allreduce_sum_u64_adds_every_rank() {
        let out = run::<(), _, _>(4, |ctx| ctx.allreduce_sum_u64(ctx.rank() as u64));
        assert!(out.iter().all(|&s| s == 6));
    }

    #[test]
    fn allreduce_sum_vec_elementwise() {
        let out = run::<(), _, _>(3, |ctx| {
            let mine = vec![ctx.rank() as f64; 4];
            ctx.allreduce_sum_vec(&mine)
        });
        for v in out {
            assert_eq!(v, vec![3.0, 3.0, 3.0, 3.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = run::<(), _, _>(3, |ctx| {
            let mine: Vec<f64> = (0..=ctx.rank()).map(|i| i as f64).collect();
            ctx.allgather_f64(&mine)
        });
        for v in out {
            assert_eq!(v, vec![0.0, 0.0, 1.0, 0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_from_root() {
        let out = run::<(), _, _>(4, |ctx| {
            ctx.broadcast_f64(if ctx.rank() == 0 { 42.0 } else { -1.0 })
        });
        assert!(out.iter().all(|&x| x == 42.0));
    }

    #[test]
    fn repeated_collectives_do_not_interfere() {
        let out = run::<(), _, _>(4, |ctx| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += ctx.allreduce_sum((ctx.rank() * i) as f64);
            }
            acc
        });
        // Σ_i Σ_r r*i = Σ_i 6i = 6 * (49*50/2) = 7350.
        assert!(out.iter().all(|&x| (x - 7350.0).abs() < 1e-9), "{out:?}");
    }
}
