//! # Dataflow engines: scan machine, hash machine, river
//!
//! The paper's §Scalable Server Architectures proposes three machine
//! classes over an array of commodity nodes:
//!
//! * the **scan machine** "continuously scans the dataset evaluating
//!   user-supplied predicates on each object" — interactive, a query
//!   attaches at any time and completes within one scan cycle;
//! * the **hash machine** "redistributes a subset of the data among all
//!   the nodes of the cluster. Then each node processes each hash bucket
//!   at that node" — the spatial analogue of a relational hash join,
//!   used for pair-finding (gravitational lenses) and clustering;
//! * the **river** generalizes both: "dataflow graphs where the nodes
//!   consume one or more data streams, filter and combine the data, and
//!   then produce one or more result streams".
//!
//! All three run over [`cluster::SimCluster`], a simulated array of
//! nodes — each node is a thread owning a disjoint set of storage
//! containers, standing in for the paper's 20×4-CPU Intel cluster.
//! [`sort`] and [`xmatch`] add the parallel sort behind the river's
//! sort stage and a nearest-neighbor cross-matcher.
//!
//! These machines reproduce the paper's figures and ablations. Queries
//! do not run here: `sdss_query` executes every query through its own
//! morsel driver, the single-node analog of the scan machine's striped
//! sweep.

pub mod cluster;
pub mod hash;
pub mod river;
pub mod scan;
pub mod sort;
pub mod xmatch;

pub use cluster::{NodeStats, SimCluster};
pub use hash::{brute_force_pairs, HashMachine, HashReport, PairPredicate, PairResult};
pub use river::{RiverGraph, RiverReport, RiverStage};
pub use scan::{ContinuousScan, ObjPredicate, ScanMachine, ScanReport};
pub use sort::{parallel_sort_by_key, SortReport};
pub use xmatch::{Match, XMatchReport, XMatcher};

/// Errors produced by the dataflow crate.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// Invalid machine configuration (zero nodes, bad level...).
    InvalidConfig(String),
    /// A worker thread panicked or a channel closed unexpectedly.
    WorkerFailed(String),
    /// Underlying storage error.
    Storage(String),
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            DataflowError::WorkerFailed(m) => write!(f, "worker failed: {m}"),
            DataflowError::Storage(m) => write!(f, "storage: {m}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<sdss_storage::StorageError> for DataflowError {
    fn from(e: sdss_storage::StorageError) -> Self {
        DataflowError::Storage(e.to_string())
    }
}
