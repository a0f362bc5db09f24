//! # AutoMoDe — Model-Based Development of Automotive Software
//!
//! Facade crate of the AutoMoDe reproduction (DATE 2005, Ziegenbein et al.).
//! Re-exports every workspace crate under one roof:
//!
//! * [`kernel`] — the discrete-time, message-based operational model.
//! * [`lang`] — the base expression language for atomic block behaviour.
//! * [`core`] — the meta-model: SSD/DFD/MTD/STD/CCD notations, abstraction
//!   levels (FAA/FDA/LA/TA), type system, design rules.
//! * [`sim`] — model elaboration onto the kernel, traces, equivalence.
//! * [`transform`] — reengineering, refactoring, refinement, deployment.
//! * [`ascet`] — the ASCET-SD-like substrate (reengineering source and
//!   OA code-generation target).
//! * [`platform`] — the technical-architecture substrate (ECUs, OSEK-like
//!   scheduler, CAN bus, communication matrices).
//! * [`engine`] — the gasoline-engine control case study of the paper's
//!   Sec. 5, plus the door-lock (Fig. 1) and momentum-controller (Fig. 5)
//!   models.
//! * [`service`] — the scenario-sweep service: HTTP/JSON API over a
//!   sharded compiled-model cache and a K-lane batch worker pool.
//!
//! See `examples/quickstart.rs` for a tour and `DESIGN.md` / `EXPERIMENTS.md`
//! for the experiment index.

#![forbid(unsafe_code)]

pub mod cli;

pub use automode_ascet as ascet;
pub use automode_core as core;
pub use automode_engine as engine;
pub use automode_explore as explore;
pub use automode_kernel as kernel;
pub use automode_lang as lang;
pub use automode_platform as platform;
pub use automode_service as service;
pub use automode_sim as sim;
pub use automode_transform as transform;
