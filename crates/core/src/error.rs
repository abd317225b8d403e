use std::error::Error;
use std::fmt;

use tpi_netlist::NetlistError;
use tpi_sim::StopReason;

/// Errors produced by the test-point-insertion optimizers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TpiError {
    /// The tree DP was asked to solve a circuit with fanout (the class on
    /// which the problem is NP-hard; use the constructive loop, see
    /// [`general`](crate::general)).
    NotFanoutFree {
        /// A stem demonstrating the fanout.
        stem: String,
    },
    /// No insertion can bring the named fault to the threshold (its
    /// excitation probability is below `δ` in every configuration).
    Infeasible {
        /// Human-readable fault description.
        fault: String,
    },
    /// An invalid parameter (threshold out of range, empty candidate set…).
    InvalidParameter {
        /// Description of the violation.
        message: String,
    },
    /// Underlying netlist failure.
    Netlist(NetlistError),
    /// A [`RunControl`](tpi_sim::RunControl) token stopped the
    /// computation before any partial result was committed (layers with
    /// a meaningful best-so-far return it instead of this error).
    Interrupted {
        /// Why the run was stopped.
        reason: StopReason,
    },
}

impl fmt::Display for TpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpiError::NotFanoutFree { stem } => {
                write!(f, "circuit is not fanout-free (stem at `{stem}`)")
            }
            TpiError::Infeasible { fault } => {
                write!(f, "threshold unreachable for fault {fault}")
            }
            TpiError::InvalidParameter { message } => write!(f, "invalid parameter: {message}"),
            TpiError::Netlist(e) => write!(f, "netlist error: {e}"),
            TpiError::Interrupted { reason } => write!(f, "interrupted: {reason}"),
        }
    }
}

impl Error for TpiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TpiError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for TpiError {
    fn from(e: NetlistError) -> TpiError {
        TpiError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TpiError::Infeasible {
            fault: "x/SA0".into(),
        };
        assert!(e.to_string().contains("x/SA0"));
        assert!(e.source().is_none());

        let e = TpiError::from(NetlistError::NoSuchNode { index: 3 });
        assert!(e.to_string().contains("netlist error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TpiError>();
    }
}
