//! # kgdual-dotil
//!
//! **DOTIL** — the *Dual-stOre Tuner based on reInforcement Learning* (§4
//! of the paper) — plus the baseline tuners it is evaluated against (§6.4).
//!
//! The dual-store physical design tuning problem (which triple partitions
//! to mirror into the budget-constrained graph store, and when) is a
//! knapsack variant with unknown, drifting item values; the paper models it
//! as a Markov Decision Process and solves it with tabular Q-learning:
//!
//! * **State-space decomposition** ([`qmatrix`]): instead of one `2^n`
//!   table, each partition `T_i` gets its own 2×2 Q-matrix over
//!   state ∈ {out, in} × action ∈ {keep, move}, multiplying the retraining
//!   frequency of every state.
//! * **Counterfactual scenario** ([`counterfactual`]): rewards need the
//!   cost a complex subquery *would have had* in the relational store; a
//!   parallel thread runs it there and is stopped once its cost reaches
//!   `λ · c1` (Algorithm 2).
//! * **Amortized rewards**: a subquery's cost improvement is split across
//!   its partitions by predicate proportion (`δ(P_i)`, §4.2.1).
//!
//! [`dotil::Dotil`] implements Algorithm 1 behind the
//! [`kgdual_core::PhysicalTuner`] trait; [`baselines`] provides the
//! *one-off*, *LRU/frequency*, and *ideal* tuning modes, and the
//! `RDB-views` baseline's view advisor.

pub mod baselines;
pub mod config;
pub mod counterfactual;
pub mod dotil;
pub mod qmatrix;

pub use baselines::{FrequencyTuner, IdealTuner, OneOffTuner, ViewTuner};
pub use config::DotilConfig;
pub use dotil::Dotil;
pub use qmatrix::QMatrix;
