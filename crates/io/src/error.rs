//! Typed errors of the netlist reader and writer.

use bdsm_circuit::CircuitError;
use std::fmt;

/// A netlist parse failure, located at a 1-based line and column of the
/// source text (both `0` when no position applies, e.g. I/O failures).
#[derive(Debug)]
pub struct NetlistError {
    /// 1-based source line (0 if not positional).
    pub line: usize,
    /// 1-based source column (0 if not positional).
    pub col: usize,
    /// What went wrong.
    pub kind: NetlistErrorKind,
}

impl NetlistError {
    pub(crate) fn at(line: usize, col: usize, kind: NetlistErrorKind) -> Self {
        NetlistError { line, col, kind }
    }
}

/// The reason a netlist failed to parse.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetlistErrorKind {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The line starts with a letter that is not a supported card type.
    UnknownCard(String),
    /// A `.directive` this dialect does not know.
    UnknownDirective(String),
    /// A card or directive is missing a required field.
    MissingField {
        /// The card or directive being parsed.
        card: String,
        /// The field that was expected next.
        field: &'static str,
    },
    /// A card or directive has tokens after its last field.
    ExtraTokens {
        /// The card or directive being parsed.
        card: String,
    },
    /// A value token did not parse as a number (with optional SPICE scale
    /// suffix).
    BadValue(String),
    /// A value parsed but is NaN or infinite.
    NonFiniteValue(f64),
    /// The ground node was used where a bus is required.
    GroundInvalid {
        /// What was being parsed.
        context: &'static str,
    },
    /// A current source with both terminals on non-ground buses — the
    /// network model only supports injection into a single bus.
    CurrentSourceBetweenBuses,
    /// A directive referenced a bus name that has not been seen.
    UnknownBus(String),
    /// A `.bus` directive re-declared an existing bus name.
    DuplicateBus(String),
    /// An element card reused the name of an earlier one (names compare
    /// case-insensitively, as in SPICE).
    DuplicateElement {
        /// The earlier card's spelling of the name.
        first: String,
        /// The earlier card's 1-based line.
        first_line: usize,
    },
    /// Building the network rejected the element (bad value, self-loop,
    /// floating element, …).
    Circuit(CircuitError),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "netlist line {}, col {}: {}",
                self.line, self.col, self.kind
            )
        } else {
            write!(f, "netlist: {}", self.kind)
        }
    }
}

impl fmt::Display for NetlistErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistErrorKind::Io(e) => write!(f, "io error: {e}"),
            NetlistErrorKind::UnknownCard(t) => {
                write!(f, "unknown card '{t}' (supported: R, C, L, I, V)")
            }
            NetlistErrorKind::UnknownDirective(t) => write!(
                f,
                "unknown directive '{t}' (supported: .bus, .port, .probe, .end)"
            ),
            NetlistErrorKind::MissingField { card, field } => {
                write!(f, "'{card}' is missing its {field}")
            }
            NetlistErrorKind::ExtraTokens { card } => {
                write!(f, "unexpected tokens after '{card}'")
            }
            NetlistErrorKind::BadValue(t) => write!(f, "'{t}' is not a number"),
            NetlistErrorKind::NonFiniteValue(v) => write!(f, "value {v} is not finite"),
            NetlistErrorKind::GroundInvalid { context } => {
                write!(f, "ground cannot be used as {context}")
            }
            NetlistErrorKind::CurrentSourceBetweenBuses => write!(
                f,
                "current source must have one terminal on ground \
                 (bus-to-bus current sources are not supported)"
            ),
            NetlistErrorKind::UnknownBus(name) => write!(f, "unknown bus '{name}'"),
            NetlistErrorKind::DuplicateBus(name) => {
                write!(f, "bus '{name}' is already declared")
            }
            NetlistErrorKind::DuplicateElement { first, first_line } => {
                write!(f, "element name repeats '{first}' of line {first_line}")
            }
            NetlistErrorKind::Circuit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            NetlistErrorKind::Io(e) => Some(e),
            NetlistErrorKind::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

/// A netlist write failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum WriteError {
    /// A bus name cannot be represented in the netlist text.
    UnwritableBusName {
        /// Bus index.
        index: usize,
        /// The offending name.
        name: String,
        /// Why it cannot be written.
        why: &'static str,
    },
    /// Writing the file failed.
    Io(std::io::Error),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::UnwritableBusName { index, name, why } => {
                write!(f, "bus {index} name '{name}' cannot be written: {why}")
            }
            WriteError::Io(e) => write!(f, "netlist io error: {e}"),
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriteError::Io(e) => Some(e),
            _ => None,
        }
    }
}
