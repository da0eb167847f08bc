//! # docql-mapping — the SGML ↔ O₂ mapping (§3)
//!
//! The paper's Fig. 1 → Fig. 3 transformation and its instance-level
//! counterpart:
//!
//! * [`schema_gen`] — DTD → schema: each element becomes a class; choice
//!   connectors become marked unions, occurrence indicators become lists /
//!   nilable attributes / constraints, SGML attributes become private
//!   trailing attributes, `ID`/`IDREF` become object references.
//! * [`load`] — document instance → objects and values (with ID/IDREF
//!   patching), and [`derive_text`], the one derivation of the `text`
//!   inverse mapping from the objects.
//! * [`export`] — objects → SGML document (the inverse mapping of
//!   footnote 1 / the update path of §6).
//! * [`shape`] / [`names`] — the shared content-shape recursion and the
//!   Fig. 3 naming conventions.

pub mod export;
pub mod inverse;
pub mod load;
pub mod names;
pub mod schema_gen;
pub mod shape;

pub use export::export_document;
pub use inverse::{schema_to_dtd, schema_to_dtd_text};
pub use load::{derive_text, load_document, load_sgml_text, LoadedDocument};
pub use names::{class_name, plural};
pub use schema_gen::{
    map_dtd, map_dtd_with, AttrKind, AttrMapping, ContentKind, DtdMapping, ElementMapping, MapError,
};
pub use shape::Shape;
