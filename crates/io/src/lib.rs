//! SPICE-subset netlist I/O for BDSM power-grid networks.
//!
//! This crate is the ingestion layer that turns the repo from a synthetic
//! benchmark harness into a tool that accepts real grids: a parser from a
//! small, well-defined SPICE dialect to [`bdsm_circuit::Network`], and a
//! writer back to the same dialect so every network the generators (or the
//! parser itself) produce can be checked in, diffed, and re-read.
//!
//! # Dialect
//!
//! One card or directive per logical line; a line whose first
//! non-whitespace character is `+` continues the previous logical line.
//! Lines starting with `*` are comments, and `;` starts a comment anywhere
//! in a line. Everything is case-insensitive except bus-name spelling
//! (the first spelling seen is kept). Element names are unique across
//! all cards, as in SPICE: `r1` after `R1` is a
//! [`NetlistErrorKind::DuplicateElement`]. Supported cards:
//!
//! | card | form | meaning |
//! |------|------|---------|
//! | `R…` | `Rname a b value` | resistor (Ω) |
//! | `C…` | `Cname a b value` | capacitor (F) |
//! | `L…` | `Lname a b value` | inductor (H) |
//! | `I…` | `Iname n+ n- value` | current-source input; one terminal must be ground, the other is the injection bus |
//! | `V…` | `Vname n+ n- value` | voltage-source input between `n+` and `n-` |
//!
//! and directives:
//!
//! | directive | meaning |
//! |-----------|---------|
//! | `.bus name` | declares a bus (dialect extension: pins the bus index order so writer output round-trips index-exactly) |
//! | `.port name` | MOR port at a bus: current injection input + voltage probe output |
//! | `.probe name` | voltage probe output at a bus |
//! | `.end` | end of netlist; anything after is ignored |
//!
//! The ground node is spelled `0`, `gnd`, or `ground` (case-insensitive).
//! Values take SPICE scale suffixes (`t g meg k m u n p f`, with `meg`
//! distinguished from milli-`m`) and ignore trailing unit letters, so
//! `2.2kOhm`, `100nF`, and `1e-3` all parse. Undeclared bus names are
//! interned in first-seen order.
//!
//! Source *amplitudes* are model inputs `u(t)` in BDSM, not structural
//! data: the `I`/`V` card values are validated but not stored, and the
//! writer emits `1` for them. Round-trip equality
//! (`parse → write → parse`) is stated over the structural content —
//! bus names and order, elements, sources, probes — which is exactly
//! [`bdsm_circuit::Network`]'s `PartialEq`.
//!
//! # Example
//!
//! ```
//! use bdsm_io::{parse_netlist, write_netlist};
//!
//! let src = "\
//! * two-bus divider
//! R1 in out 1k
//! C1 out 0 100n ; load
//! .port in
//! .probe out
//! .end";
//! let net = parse_netlist(src)?;
//! assert_eq!(net.num_buses(), 2);
//! assert_eq!(net.bus_name(0), "in");
//!
//! // The writer's output parses back to a structurally equal network.
//! let text = write_netlist(&net)?;
//! assert_eq!(parse_netlist(&text)?, net);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod parse;
mod write;

pub use error::{NetlistError, NetlistErrorKind, WriteError};
pub use parse::{load_netlist, parse_netlist};
pub use write::{save_netlist, write_netlist};
