//! # tsexplain-baselines
//!
//! The three explanation-agnostic segmentation baselines the paper
//! compares against (§7.2). All of them segment the *aggregated* series by
//! visual shape alone and take the segment count K as input:
//!
//! * [`bottom_up`] — piecewise-linear approximation by greedy merging from
//!   the finest segments (Keogh et al. (paper ref. 21), the strongest baseline in the
//!   paper's experiments),
//! * [`fluss`] — matrix-profile-based semantic segmentation via the
//!   corrected arc curve (Gharghabi et al. (paper ref. 9)), built on the from-scratch
//!   [`matrix_profile_index`],
//! * [`nnsegment`] — the LimeSegment changepoint detector (paper ref. 42),
//!   approximated by adjacent-window z-normalized dissimilarity maxima
//!   with an exclusion zone.
//!
//! Each returns interior cut positions compatible with
//! `tsexplain_segment::Segmentation`.
//!
//! The [`adapters`] module additionally wraps each baseline into the
//! [`tsexplain_segment::Segmenter`] strategy boundary
//! ([`BottomUpSegmenter`], [`FlussSegmenter`], [`NnSegmentSegmenter`]), so
//! all of them are selectable per-request through the serving API next to
//! the paper's explanation-aware DP.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
mod adapters;
mod bottom_up;
mod common;
mod fluss;
mod matrix_profile;
mod nnsegment;

pub use adapters::{BottomUpSegmenter, FlussSegmenter, NnSegmentSegmenter};
pub use bottom_up::bottom_up;
pub use common::{interpolation_sse, znormalized_distance};
pub use fluss::{corrected_arc_curve, fluss};
pub use matrix_profile::matrix_profile_index;
pub use nnsegment::nnsegment;
