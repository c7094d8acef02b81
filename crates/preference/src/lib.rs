//! # l2r-preference
//!
//! Step 2 of the learn-to-route pipeline (Section V of the paper): the
//! routing-preference model, learning preferences for T-edges, and
//! transferring them to B-edges with graph-based transduction learning.
//!
//! * [`model`] — the `⟨master, slave⟩` preference vector and its feature
//!   embedding;
//! * [`learning`] — the coordinate-descent preference learner for T-edges;
//! * [`re_sim`] — region-edge descriptors and the `reSim` similarity;
//! * [`transfer`] — the transduction step that assigns preferences to
//!   B-edges (or to held-out T-edges for the Figure 9 accuracy experiments).
//!   It solves Equation 3 with a crate-private CSR system matrix, assembled
//!   straight from the similarity rows, and a conjugate-gradient solver (in
//!   place of the Junto library the paper used).

#![warn(missing_docs)]

pub mod codec;
pub mod learning;
pub mod model;
pub mod re_sim;
mod solver;
pub mod transfer;

pub use learning::{
    learn_edge_preference, learn_edge_preference_in, learn_per_path_preferences, LearnConfig,
    LearnedPreference,
};
pub use model::{Preference, NUM_FEATURES};
pub use re_sim::{build_descriptors, RegionEdgeDescriptor};
pub use transfer::{
    build_similarity_rows, build_similarity_rows_naive, transfer_preferences, TransferConfig,
    TransferResult,
};
