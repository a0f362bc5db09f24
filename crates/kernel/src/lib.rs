//! # automode-kernel
//!
//! Discrete-time, message-based execution kernel for AutoMoDe — a from-scratch
//! reimplementation of the operational model the DATE'05 AutoMoDe paper bases
//! on the AutoFOCUS framework (Sec. 2 of the paper).
//!
//! The semantic core:
//!
//! * Every model element is a *block* exchanging [`Message`]s with its
//!   environment via logical channels, with respect to a **global discrete
//!   time base** (ticks).
//! * At every tick, every channel holds either an explicit [`Value`] or the
//!   `"-"` ("tick") marker indicating the **absence** of a message
//!   ([`Message::Absent`]). Event-triggered behaviour is modelled by reacting
//!   to presence/absence.
//! * Multi-rate systems associate each flow with an **abstract clock**
//!   ([`Clock`]): a Boolean expression that is `true` exactly when a message
//!   is present. The macro clock `every(n, true)` is [`Clock::every`].
//! * The sampling operators `when`, `delay` and `current` (from the
//!   synchronous-language tradition) are provided both as pure stream
//!   combinators ([`stream`]) and as executable blocks ([`ops`]).
//! * Networks of blocks ([`Network`]) are executed synchronously; channels
//!   are either *instantaneous* (DFD-style) or *delayed* (SSD-style — every
//!   SSD channel introduces one message delay). A **causality check**
//!   ([`causality`]) rejects instantaneous loops.
//!
//! ## Example
//!
//! Downsample a stream by two with a `when` operator clocked by
//! `every(2, true)` — the paper's Fig. 2:
//!
//! ```
//! use automode_kernel::{Network, Message, Value};
//! use automode_kernel::ops::{When, EveryClockGen};
//!
//! # fn main() -> Result<(), automode_kernel::KernelError> {
//! let mut net = Network::new("fig2");
//! let a = net.add_input("a");
//! let clk = net.add_block(EveryClockGen::new(2, 0));
//! let when = net.add_block(When::new());
//! net.connect_input(a, when.input(0))?;
//! net.connect(clk.output(0), when.input(1))?;
//! net.expose_output("a_sampled", when.output(0))?;
//!
//! let ticks: Vec<Vec<Message>> =
//!     (0..4).map(|t| vec![Message::present(Value::Int(t))]).collect();
//! let trace = net.run(&ticks)?;
//! let s = trace.signal("a_sampled").unwrap();
//! assert!(s[0].is_present() && s[1].is_absent());
//! assert!(s[2].is_present() && s[3].is_absent());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causality;
pub mod clock;
pub mod coverage;
pub mod error;
pub mod event;
pub mod fault;
pub mod lanes;
pub mod network;
pub mod ops;
pub mod stream;
pub mod trace;
pub mod value;
pub mod vcd;

pub use causality::{CausalityError, CausalityReport};
pub use clock::{checked_lcm, Clock};
pub use coverage::{CoverageLayout, CoverageMap, CoverageSite, CoverageSpace};
pub use error::KernelError;
pub use event::{Calendar, EngineKind, PlanInfo, PlanRejection};
pub use fault::{
    ChannelContract, ContractMonitor, Corruptor, FaultKind, FaultSpec, FaultTarget,
    PresenceViolation, RobustnessReport,
};
pub use lanes::{LaneFailure, LaneKernel, LaneSlice, LaneSliceMut, LaneStore};
pub use network::{
    BlockHandle, LanePlan, LaneStepper, Network, NodeId, PortRef, ReadyNetwork, ReferenceExecutor,
    ReplicaReason,
};
pub use ops::{Block, ClockBehavior};
pub use stream::Stream;
pub use trace::{Trace, TraceEquivalence};
pub use value::{Fixed, Message, Value};

/// A point on the global discrete time base.
///
/// Ticks start at `0` and advance by one per global reaction. Real-time
/// intervals of an implementation are abstracted by logical time intervals
/// between ticks (paper, Sec. 2).
pub type Tick = u64;
