//! # Container-clustered object store
//!
//! The archive's storage layer, modeled on the paper's Objectivity/DB
//! deployment but built from scratch:
//!
//! > "Data can be quantized into containers. Each container has objects of
//! > similar properties, e.g. colors, from the same region of the sky. If
//! > the containers are stored as clusters, data locality will be very
//! > high [...] These containers represent a coarse-grained density map of
//! > the data. They define the base of an index tree that tells us whether
//! > containers are fully inside, outside or bisected by our query."
//!
//! * [`page`] — fixed-size slotted pages of serialized records
//! * [`container`] — one clustering unit per HTM trixel at the store's
//!   partition level, with per-container statistics (the density map)
//! * [`store`] — the object store: bulk insert, id lookup, region scans
//!   driven by HTM covers that read records in place
//! * [`scan_plan`] — the cover-to-morsels plan both stores' scans share
//! * [`vertical`] — the tag-object vertical partition (paper §Desktop
//!   Data Analysis), kept as one image: a column chunk per container
//! * [`column`](mod@column) — struct-of-arrays tag columns per
//!   container (plus `ra`/`dec` lanes derived once at push) and batch
//!   views with selection bitmaps (the E5 scan path's memory-bandwidth
//!   substrate)
//! * [`cover_cache`] — memoized HTM covers keyed by
//!   `(domain fingerprint, level)` for repeated region queries
//! * [`resultset`] — server-side result sets (session workspaces):
//!   query results materialized into the same SoA chunk layout so
//!   `FROM <set>` scans ride the compiled morsel-parallel path
//! * [`sample`] — deterministic percentage samples ("a 1% sample ... to
//!   quickly test and debug programs")
//! * [`partition`] — spatial partitioning of containers over servers
//! * [`morsel`] — byte-balanced, work-stealing morsel queues (the
//!   single-node analog of striping one scan across the scan machine)
//! * [`estimate`] — output volume / search time prediction from the
//!   intersection volume

pub mod column;
pub mod container;
pub mod cover_cache;
pub mod estimate;
pub mod morsel;
pub mod page;
pub mod partition;
pub mod resultset;
pub mod sample;
pub mod scan_plan;
pub mod store;
pub mod vertical;
pub mod zone;

pub use column::{ColumnBatch, ColumnChunk, SelectionMask, SetBits, BATCH_ROWS};
pub use container::{Container, ContainerStats};
pub use cover_cache::CoverCache;
pub use estimate::{CostModel, QueryEstimate};
pub use morsel::MorselQueue;
pub use page::{Page, PageIter, PAGE_SIZE};
pub use partition::PartitionMap;
pub use resultset::{cut_runs, ResultSet, ResultSetBuilder, RESULT_SET_CHUNK_ROWS};
pub use sample::sample_hash_keep;
pub use scan_plan::{ScanMorsel, ScanPlan};
pub use store::{ObjectStore, RegionScan, StoreConfig, TouchCounters};
pub use vertical::TagStore;
pub use zone::{DecZoneIndex, MatchFootprint, ZoneIndex};

/// Errors produced by the storage crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Record larger than a page.
    RecordTooLarge { len: usize, max: usize },
    /// Deserialization failure inside a page.
    Corrupt(String),
    /// HTM layer error (invalid level etc.).
    Htm(String),
    /// Unknown object id.
    NotFound(u64),
    /// Invalid configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page payload {max}")
            }
            StorageError::Corrupt(m) => write!(f, "corrupt page: {m}"),
            StorageError::Htm(m) => write!(f, "htm: {m}"),
            StorageError::NotFound(id) => write!(f, "object {id:#x} not found"),
            StorageError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<sdss_htm::HtmError> for StorageError {
    fn from(e: sdss_htm::HtmError) -> Self {
        StorageError::Htm(e.to_string())
    }
}

impl From<sdss_catalog::CatalogError> for StorageError {
    fn from(e: sdss_catalog::CatalogError) -> Self {
        StorageError::Corrupt(e.to_string())
    }
}
