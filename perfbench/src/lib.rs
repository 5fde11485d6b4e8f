//! End-to-end and per-layer benchmark of the NewMadeleine reproduction.
//!
//! `run` (the binary) drives the library's public API through seeded
//! workloads and prints one JSON result line; the modules here hold the
//! logic it is built from, each with its own unit tests.

pub mod floors;
pub mod gen;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
