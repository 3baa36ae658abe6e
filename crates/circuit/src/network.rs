//! Power-grid network model: buses, R/L/C branches, sources, and ports.
//!
//! The model deliberately mirrors how the paper's benchmark circuits are
//! described: a set of buses (nodes), two-terminal R/L/C branches between
//! buses or to ground, independent current/voltage sources acting as model
//! inputs, and voltage probes acting as model outputs. A *port* in the MOR
//! sense is a current injection paired with a voltage probe at the same bus.

use std::fmt;

/// Sentinel node index denoting the ground (reference) node.
///
/// Ground is not a state: stamps touching it are dropped during assembly.
pub const GROUND: usize = usize::MAX;

/// Errors produced while building or processing a network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A bus index is neither a valid bus nor [`GROUND`].
    InvalidNode {
        /// The offending index.
        node: usize,
        /// Number of buses in the network.
        num_buses: usize,
    },
    /// Both terminals of an element are grounded (the element is dangling).
    FloatingElement,
    /// Both terminals of an element are the same bus (a self-loop stamps to
    /// nothing and makes voltage-source rows structurally singular).
    SelfLoop {
        /// The bus both terminals touch.
        node: usize,
    },
    /// An element value that must be strictly positive is not.
    NonPositiveValue {
        /// Which element kind was being added.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A resistance so small (a subnormal value such as `1e-310` Ω) that
    /// its conductance `1/R`, the value MNA stamps, is not finite.
    InfiniteConductance {
        /// The offending resistance in ohms.
        ohms: f64,
    },
    /// The network has no buses.
    EmptyNetwork,
    /// The operation needs at least one input and one output port.
    NoPorts,
    /// A partition request that cannot be satisfied.
    InvalidPartition {
        /// Human-readable description.
        what: &'static str,
    },
    /// A reduction-set request (kept/eliminated buses) that cannot be
    /// satisfied — empty keep set, nothing to eliminate, or an
    /// out-of-range bus index.
    InvalidReductionSet {
        /// Human-readable description.
        what: &'static str,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidNode { node, num_buses } => {
                write!(
                    f,
                    "invalid node index {node} (network has {num_buses} buses)"
                )
            }
            CircuitError::FloatingElement => {
                write!(f, "element has both terminals grounded")
            }
            CircuitError::SelfLoop { node } => {
                write!(f, "element connects bus {node} to itself")
            }
            CircuitError::NonPositiveValue { what, value } => {
                write!(f, "{what} value must be positive, got {value}")
            }
            CircuitError::InfiniteConductance { ohms } => {
                write!(f, "resistance {ohms:e} ohm has no finite conductance 1/R")
            }
            CircuitError::EmptyNetwork => write!(f, "network has no buses"),
            CircuitError::NoPorts => {
                write!(
                    f,
                    "operation requires at least one input and one output port"
                )
            }
            CircuitError::InvalidPartition { what } => write!(f, "invalid partition: {what}"),
            CircuitError::InvalidReductionSet { what } => {
                write!(f, "invalid reduction set: {what}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// Result alias for circuit-level operations.
pub type Result<T> = std::result::Result<T, CircuitError>;

/// The physical kind (and value) of a two-terminal branch element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElementKind {
    /// Resistance in ohms.
    Resistor(f64),
    /// Capacitance in farads.
    Capacitor(f64),
    /// Inductance in henries.
    Inductor(f64),
}

/// A two-terminal branch between buses `a` and `b` (either may be [`GROUND`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Element {
    /// First terminal.
    pub a: usize,
    /// Second terminal.
    pub b: usize,
    /// Kind and value.
    pub kind: ElementKind,
}

/// An independent current source injecting the input `u` into a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSource {
    /// Bus receiving the injected current.
    pub node: usize,
}

/// An independent voltage source forcing `v_plus − v_minus = u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSource {
    /// Positive terminal (may be a bus only, not ground-checked here).
    pub plus: usize,
    /// Negative terminal (often [`GROUND`]).
    pub minus: usize,
}

/// A voltage probe: the model output is the voltage at `node`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Bus being observed.
    pub node: usize,
}

/// A power-grid network: buses + branches + sources + probes.
///
/// `PartialEq` compares the full structural content (bus names, elements,
/// sources, probes, all in insertion order) — the equality the netlist
/// round-trip guarantee in `bdsm-io` is stated against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    bus_names: Vec<String>,
    elements: Vec<Element>,
    current_sources: Vec<CurrentSource>,
    voltage_sources: Vec<VoltageSource>,
    probes: Vec<Probe>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a bus and returns its index.
    pub fn add_bus(&mut self, name: impl Into<String>) -> usize {
        self.bus_names.push(name.into());
        self.bus_names.len() - 1
    }

    /// Number of buses (excluding ground).
    pub fn num_buses(&self) -> usize {
        self.bus_names.len()
    }

    /// Name of bus `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bus_name(&self, i: usize) -> &str {
        &self.bus_names[i]
    }

    fn check_node(&self, node: usize) -> Result<()> {
        if node == GROUND || node < self.num_buses() {
            Ok(())
        } else {
            Err(CircuitError::InvalidNode {
                node,
                num_buses: self.num_buses(),
            })
        }
    }

    fn check_pair(&self, a: usize, b: usize) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == GROUND && b == GROUND {
            return Err(CircuitError::FloatingElement);
        }
        if a == b {
            return Err(CircuitError::SelfLoop { node: a });
        }
        Ok(())
    }

    fn add_element(&mut self, a: usize, b: usize, kind: ElementKind) -> Result<usize> {
        self.check_pair(a, b)?;
        let (what, value) = match kind {
            ElementKind::Resistor(v) => ("resistor", v),
            ElementKind::Capacitor(v) => ("capacitor", v),
            ElementKind::Inductor(v) => ("inductor", v),
        };
        if !(value > 0.0 && value.is_finite()) {
            return Err(CircuitError::NonPositiveValue { what, value });
        }
        if matches!(kind, ElementKind::Resistor(_)) && !(1.0 / value).is_finite() {
            return Err(CircuitError::InfiniteConductance { ohms: value });
        }
        self.elements.push(Element { a, b, kind });
        Ok(self.elements.len() - 1)
    }

    /// Adds a resistor of `ohms` between `a` and `b`; returns the element index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] on invalid nodes, a non-positive value, or
    /// a resistance whose conductance `1/R` is not finite
    /// ([`CircuitError::InfiniteConductance`]).
    pub fn add_resistor(&mut self, a: usize, b: usize, ohms: f64) -> Result<usize> {
        self.add_element(a, b, ElementKind::Resistor(ohms))
    }

    /// Adds a capacitor of `farads` between `a` and `b`; returns the element index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] on invalid nodes or a non-positive value.
    pub fn add_capacitor(&mut self, a: usize, b: usize, farads: f64) -> Result<usize> {
        self.add_element(a, b, ElementKind::Capacitor(farads))
    }

    /// Adds an inductor of `henries` between `a` and `b`; returns the element index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] on invalid nodes or a non-positive value.
    pub fn add_inductor(&mut self, a: usize, b: usize, henries: f64) -> Result<usize> {
        self.add_element(a, b, ElementKind::Inductor(henries))
    }

    /// Adds a current-source input injecting into `node`; returns the input index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNode`] if `node` is invalid or ground.
    pub fn add_current_source(&mut self, node: usize) -> Result<usize> {
        self.check_node(node)?;
        if node == GROUND {
            return Err(CircuitError::InvalidNode {
                node,
                num_buses: self.num_buses(),
            });
        }
        self.current_sources.push(CurrentSource { node });
        Ok(self.current_sources.len() - 1)
    }

    /// Adds a voltage-source input between `plus` and `minus`; returns the
    /// index of this source among voltage sources.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] on invalid nodes or both terminals grounded.
    pub fn add_voltage_source(&mut self, plus: usize, minus: usize) -> Result<usize> {
        self.check_pair(plus, minus)?;
        self.voltage_sources.push(VoltageSource { plus, minus });
        Ok(self.voltage_sources.len() - 1)
    }

    /// Adds a voltage-probe output at `node`; returns the output index.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNode`] if `node` is invalid or ground.
    pub fn add_probe(&mut self, node: usize) -> Result<usize> {
        self.check_node(node)?;
        if node == GROUND {
            return Err(CircuitError::InvalidNode {
                node,
                num_buses: self.num_buses(),
            });
        }
        self.probes.push(Probe { node });
        Ok(self.probes.len() - 1)
    }

    /// Adds a classic MOR port at `node`: a current injection input paired
    /// with a voltage probe output. Returns `(input_index, output_index)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNode`] if `node` is invalid or ground.
    pub fn add_port(&mut self, node: usize) -> Result<(usize, usize)> {
        let input = self.add_current_source(node)?;
        let output = self.add_probe(node)?;
        Ok((input, output))
    }

    /// Branch elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Current sources in insertion order (first inputs of the model).
    pub fn current_sources(&self) -> &[CurrentSource] {
        &self.current_sources
    }

    /// Voltage sources in insertion order (inputs after current sources).
    pub fn voltage_sources(&self) -> &[VoltageSource] {
        &self.voltage_sources
    }

    /// Voltage probes in insertion order (the model outputs).
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Number of model inputs (current sources + voltage sources).
    pub fn num_inputs(&self) -> usize {
        self.current_sources.len() + self.voltage_sources.len()
    }

    /// Number of model outputs (probes).
    pub fn num_outputs(&self) -> usize {
        self.probes.len()
    }

    /// Bus adjacency lists induced by branch elements and voltage sources
    /// (ground connections do not create edges).
    ///
    /// This is the graph the partitioner works on.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_buses()];
        let connect = |a: usize, b: usize, adj: &mut Vec<Vec<usize>>| {
            if a != GROUND && b != GROUND {
                adj[a].push(b);
                adj[b].push(a);
            }
        };
        for e in &self.elements {
            connect(e.a, e.b, &mut adj);
        }
        for v in &self.voltage_sources {
            connect(v.plus, v.minus, &mut adj);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_network() {
        let mut net = Network::new();
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        net.add_resistor(a, b, 1.0).unwrap();
        net.add_capacitor(b, GROUND, 1e-6).unwrap();
        let (inp, out) = net.add_port(a).unwrap();
        assert_eq!((inp, out), (0, 0));
        assert_eq!(net.num_buses(), 2);
        assert_eq!(net.num_inputs(), 1);
        assert_eq!(net.num_outputs(), 1);
        assert_eq!(net.bus_name(0), "a");
    }

    #[test]
    fn rejects_bad_nodes_and_values() {
        let mut net = Network::new();
        let a = net.add_bus("a");
        assert!(matches!(
            net.add_resistor(a, 5, 1.0),
            Err(CircuitError::InvalidNode { node: 5, .. })
        ));
        assert!(matches!(
            net.add_resistor(GROUND, GROUND, 1.0),
            Err(CircuitError::FloatingElement)
        ));
        assert!(matches!(
            net.add_capacitor(a, GROUND, -1.0),
            Err(CircuitError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            net.add_inductor(a, GROUND, 0.0),
            Err(CircuitError::NonPositiveValue { .. })
        ));
        assert!(net.add_current_source(GROUND).is_err());
        assert!(net.add_probe(GROUND).is_err());
        assert!(matches!(
            net.add_resistor(a, a, 1.0),
            Err(CircuitError::SelfLoop { node }) if node == a
        ));
        assert!(matches!(
            net.add_voltage_source(a, a),
            Err(CircuitError::SelfLoop { .. })
        ));
        // A subnormal resistance has no finite conductance; a tiny one does.
        let err = net.add_resistor(a, GROUND, 1e-310).unwrap_err();
        assert_eq!(err, CircuitError::InfiniteConductance { ohms: 1e-310 });
        assert!(err.to_string().contains("1e-310"), "{err}");
        assert!(net.elements().is_empty());
        net.add_resistor(a, GROUND, 1e-300).unwrap();
    }

    #[test]
    fn adjacency_ignores_ground_and_dedups() {
        let mut net = Network::new();
        let a = net.add_bus("a");
        let b = net.add_bus("b");
        let c = net.add_bus("c");
        net.add_resistor(a, b, 1.0).unwrap();
        net.add_capacitor(a, b, 1e-6).unwrap(); // duplicate edge
        net.add_resistor(b, c, 1.0).unwrap();
        net.add_capacitor(c, GROUND, 1e-6).unwrap();
        let adj = net.adjacency();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CircuitError::NonPositiveValue {
            what: "resistor",
            value: -2.0,
        };
        assert!(e.to_string().contains("resistor"));
        let e = CircuitError::InvalidNode {
            node: 9,
            num_buses: 3,
        };
        assert!(e.to_string().contains('9'));
    }
}
