//! Dynamic activity monitors `A(p, q)` — Section 5.1 of the paper.
//!
//! For an ordered pair of processes `(p, q)`, the activity monitor
//! `A(p, q)` helps `p` determine whether `q` is currently *active* or
//! *inactive* for `p`, and whether `q` is `p`-timely. Both sides can turn
//! their participation on and off at any time:
//!
//! * `p` writes its local input `monitoring_p[q] ∈ {on, off}`;
//! * `q` writes its local input `active-for_q[p] ∈ {on, off}`;
//! * the monitor maintains two local outputs at `p`:
//!   `status_p[q] ∈ {active, inactive, ?}` and `faultCntr_p[q] ∈ ℕ`.
//!
//! [`fig2`] implements the register-based algorithm of Figure 2 line by
//! line; [`mesh`] wires a full `A(p, q)` mesh for all ordered pairs (used
//! by the Ω∆ implementation of Figure 3); [`props`] turns the six
//! specification properties of Definition 9 into executable checks over a
//! run trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod fig2;
pub mod mesh;
pub mod props;

pub use fig2::{
    activity_monitor, ActivityMonitorPair, MonitoredSide, MonitoredStepper, MonitoringSide,
    MonitoringStepper,
};
pub use mesh::{MonitorMesh, ProcessMonitorHandles};
pub use props::{check_pair, CheckParams, PairRun, PropReport, PropVerdict};

use std::fmt;

/// The status estimate `status_p[q]` (Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Status {
    /// `?` — the monitor has no estimate (e.g. monitoring is off).
    #[default]
    Unknown,
    /// `q` appears to be active for `p`.
    Active,
    /// `q` appears to be inactive for `p` (stopped willingly, crashed, or
    /// timed out).
    Inactive,
}

impl Status {
    /// Trace encoding: `? = 0`, `active = 1`, `inactive = 2`.
    pub fn code(self) -> i64 {
        match self {
            Status::Unknown => 0,
            Status::Active => 1,
            Status::Inactive => 2,
        }
    }

    /// Inverse of [`Status::code`].
    ///
    /// # Panics
    ///
    /// Panics on codes other than 0, 1, 2.
    pub fn from_code(code: i64) -> Self {
        match code {
            0 => Status::Unknown,
            1 => Status::Active,
            2 => Status::Inactive,
            other => panic!("invalid status code {other}"),
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Unknown => write!(f, "?"),
            Status::Active => write!(f, "active"),
            Status::Inactive => write!(f, "inactive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip() {
        for s in [Status::Unknown, Status::Active, Status::Inactive] {
            assert_eq!(Status::from_code(s.code()), s);
        }
    }

    #[test]
    #[should_panic(expected = "invalid status code")]
    fn bad_code_panics() {
        let _ = Status::from_code(3);
    }

    #[test]
    fn display() {
        assert_eq!(Status::Unknown.to_string(), "?");
        assert_eq!(Status::Active.to_string(), "active");
        assert_eq!(Status::Inactive.to_string(), "inactive");
    }
}
