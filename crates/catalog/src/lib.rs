//! # SDSS data products
//!
//! The paper's §Data Products names four datasets — a photometric catalog
//! (~500 attributes per object), a spectroscopic catalog, images and
//! spectra — plus the small "tag" objects of §Desktop Data Analysis:
//!
//! > "We plan to isolate the 10 most popular attributes (3 Cartesian
//! > positions on the sky, 5 colors, 1 size, 1 classification parameter)
//! > into small 'tag' objects, which point to the rest of the attributes."
//!
//! This crate implements those record types with fixed-layout binary
//! serialization (the storage/scan layers account bytes honestly), a
//! deterministic synthetic sky generator standing in for the real
//! telescope (see DESIGN.md substitution table), the FITS interchange
//! writer/reader the paper's pipelines exchange data in, the schema
//! registry (UML → SQL/XML/JSON in the paper's §Broader Metadata Issues),
//! and the Table 1 data-product size model.

pub mod chart;
pub mod fits;
pub mod gen;
pub mod photoobj;
pub mod products;
pub mod schema;
pub mod spectro;
pub mod tag;

pub use chart::FindingChart;
pub use gen::{GenRegion, SkyModel};
pub use photoobj::{BandPhot, ObjClass, PhotoObj, PhotoRecord, BAND_NAMES, N_BANDS};
pub use spectro::{SpecClass, SpectralLine, SpectroObj};
pub use tag::TagObject;

/// Errors produced by the catalog crate.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// Buffer too short / malformed while deserializing.
    Corrupt(String),
    /// Generator or schema parameter out of range.
    InvalidParam(String),
    /// FITS structural error (bad card, block, or type code).
    Fits(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Corrupt(m) => write!(f, "corrupt record: {m}"),
            CatalogError::InvalidParam(m) => write!(f, "invalid parameter: {m}"),
            CatalogError::Fits(m) => write!(f, "FITS error: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}
