//! Morsel-driven work distribution over container-sized work items.
//!
//! The paper's scan machine stripes containers across ~20 nodes so one
//! query uses every spindle and CPU at once. On a single node the same
//! idea becomes *morsel-driven parallelism*: the touched-container list
//! of one scan is published as a queue of small work items ("morsels" —
//! here, one container each), pre-sharded into byte-balanced per-worker
//! runs by the same greedy rule [`crate::PartitionMap`] uses to stripe
//! containers across servers. Workers drain their home shard first
//! (spatially contiguous, cache- and prefetch-friendly) and then steal
//! from the fullest remaining shard, so a skewed container can't leave
//! the other workers idle.
//!
//! The queue is index-based and payload-agnostic: callers keep their own
//! morsel table (e.g. [`crate::ScanPlan`]) and feed
//! `(index, bytes)` pairs here.

use crate::partition::PartitionMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One per-worker run of morsel indices with a claim cursor.
#[derive(Debug)]
struct Shard {
    morsels: Vec<u32>,
    next: AtomicUsize,
}

impl Shard {
    /// Claim the next unclaimed morsel of this shard, if any.
    fn claim(&self) -> Option<u32> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.morsels.get(i).copied()
    }

    fn remaining(&self) -> usize {
        self.morsels
            .len()
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// A byte-balanced, work-stealing queue of morsel indices shared by the
/// workers of one parallel scan.
#[derive(Debug)]
pub struct MorselQueue {
    shards: Vec<Shard>,
    /// Morsels dispatched per worker (observability: `QueryStats` and
    /// the parallel-scan bench assert the pool actually engaged).
    per_worker: Vec<AtomicU64>,
}

impl MorselQueue {
    /// Shard `sizes[i]` = byte weight of morsel `i` into `workers`
    /// byte-balanced runs, preserving index order within and across
    /// shards (morsel order is container id order — spatially coherent).
    pub fn build(sizes: &[usize], workers: usize) -> MorselQueue {
        let workers = workers.max(1);
        let pm = PartitionMap::build_from_sizes(
            sizes.iter().enumerate().map(|(i, &b)| (i as u64, b)),
            workers,
        )
        .expect("workers >= 1");
        let shards = (0..workers)
            .map(|w| Shard {
                morsels: pm
                    .containers_of(w)
                    .into_iter()
                    .map(|id| id as u32)
                    .collect(),
                next: AtomicUsize::new(0),
            })
            .collect();
        MorselQueue {
            shards,
            per_worker: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Total morsels in the queue (claimed or not).
    pub fn n_morsels(&self) -> usize {
        self.shards.iter().map(|s| s.morsels.len()).sum()
    }

    /// Claim the next morsel for `worker`: its home shard first, then
    /// steal from the shard with the most work left. Returns `None` when
    /// every morsel has been claimed.
    pub fn next(&self, worker: usize) -> Option<usize> {
        debug_assert!(worker < self.shards.len());
        let claimed = self.shards[worker].claim().or_else(|| {
            loop {
                // Racy snapshot of the fullest victim; claim() is the
                // linearization point, so at worst we retry.
                let victim = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != worker)
                    .max_by_key(|(_, s)| s.remaining())
                    .filter(|(_, s)| s.remaining() > 0)?
                    .0;
                if let Some(m) = self.shards[victim].claim() {
                    return Some(m);
                }
            }
        })?;
        self.per_worker[worker].fetch_add(1, Ordering::Relaxed);
        Some(claimed as usize)
    }

    /// Morsels worker `w` has claimed so far.
    pub fn dispatched(&self, worker: usize) -> u64 {
        self.per_worker[worker].load(Ordering::Relaxed)
    }

    /// Morsels claimed across all workers.
    pub fn total_dispatched(&self) -> u64 {
        self.per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn every_morsel_dispatched_exactly_once() {
        let sizes: Vec<usize> = (0..97).map(|i| 1000 + i * 13).collect();
        let q = Arc::new(MorselQueue::build(&sizes, 4));
        assert_eq!(q.n_morsels(), 97);
        let mut handles = Vec::new();
        for w in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(m) = q.next(w) {
                    got.push(m);
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..97).collect::<Vec<_>>());
        assert_eq!(q.total_dispatched(), 97);
    }

    #[test]
    fn shards_are_byte_balanced() {
        // Uniform sizes split evenly; per-worker dispatch counters see
        // only home-shard work when a single thread drains in order.
        let sizes = vec![100usize; 80];
        let q = MorselQueue::build(&sizes, 4);
        for w in 0..4 {
            let mut n = 0;
            while q.shards[w].claim().is_some() {
                n += 1;
            }
            assert_eq!(n, 20, "worker {w} shard size");
        }
    }

    #[test]
    fn stealing_drains_a_skewed_queue() {
        // A lone worker must drain its home shard and then steal every
        // other shard dry.
        let sizes = vec![1usize; 10];
        let q = MorselQueue::build(&sizes, 4);
        let mut got = Vec::new();
        while let Some(m) = q.next(3) {
            got.push(m);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(q.dispatched(3), 10);
        assert_eq!(q.dispatched(0), 0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let q = MorselQueue::build(&[10, 20], 0);
        assert_eq!(q.workers(), 1);
        assert_eq!(q.next(0), Some(0));
        assert_eq!(q.next(0), Some(1));
        assert_eq!(q.next(0), None);
    }
}
