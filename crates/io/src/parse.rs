//! The SPICE-subset parser: text → [`Network`].

use crate::error::{NetlistError, NetlistErrorKind};
use bdsm_circuit::{Network, GROUND};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// A token with its 1-based source position.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    s: &'a str,
    line: usize,
    col: usize,
}

impl Tok<'_> {
    fn err(&self, kind: NetlistErrorKind) -> NetlistError {
        NetlistError::at(self.line, self.col, kind)
    }
}

/// Parses netlist text into a [`Network`].
///
/// See the crate docs for the dialect. Bus names are interned in
/// first-seen order (with `.bus` declarations counting as a sighting), so
/// the same text always produces the same bus indexing.
///
/// # Errors
///
/// A [`NetlistError`] carrying the 1-based line/column of the offending
/// token and a typed [`NetlistErrorKind`].
pub fn parse_netlist(text: &str) -> Result<Network, NetlistError> {
    let mut parser = Parser {
        net: Network::new(),
        bus_of_name: HashMap::new(),
        element_names: HashMap::new(),
    };
    for card in logical_lines(text) {
        if !parser.card(&card)? {
            break; // .end
        }
    }
    Ok(parser.net)
}

/// Reads and parses a netlist file.
///
/// # Errors
///
/// [`NetlistErrorKind::Io`] (with no position) on filesystem failure, or
/// any [`parse_netlist`] error.
pub fn load_netlist(path: impl AsRef<Path>) -> Result<Network, NetlistError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| NetlistError::at(0, 0, NetlistErrorKind::Io(e)))?;
    parse_netlist(&text)
}

/// Splits text into logical lines of positioned tokens: strips `*` whole-
/// line and `;` rest-of-line comments, splits on whitespace, and folds `+`
/// continuation lines into their predecessor. Columns are 1-based byte
/// offsets into the physical line.
fn logical_lines(text: &str) -> Vec<Vec<Tok<'_>>> {
    let mut out: Vec<Vec<Tok<'_>>> = Vec::new();
    for (li, raw) in text.lines().enumerate() {
        let body = match raw.find(';') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let mut toks: Vec<Tok<'_>> = Vec::new();
        let mut pos = 0;
        while let Some(rel) = body[pos..].find(|c: char| !c.is_whitespace()) {
            let start = pos + rel;
            let len = body[start..]
                .find(char::is_whitespace)
                .unwrap_or(body.len() - start);
            toks.push(Tok {
                s: &body[start..start + len],
                line: li + 1,
                col: start + 1,
            });
            pos = start + len;
        }
        let Some(first) = toks.first().copied() else {
            continue;
        };
        if first.s.starts_with('*') {
            continue;
        }
        let continuation = first.s.starts_with('+');
        if continuation {
            // Strip the marker; "+R1" and "+ R1" both continue the line.
            if first.s == "+" {
                toks.remove(0);
            } else {
                toks[0] = Tok {
                    s: &first.s[1..],
                    line: first.line,
                    col: first.col + 1,
                };
            }
            if let Some(prev) = out.last_mut() {
                prev.extend(toks);
                continue;
            }
            // A leading continuation with nothing to continue: fall
            // through and let the card dispatcher report it.
        }
        if !toks.is_empty() {
            out.push(toks);
        }
    }
    out
}

/// `true` for the spellings of the ground node.
fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd") || name.eq_ignore_ascii_case("ground")
}

/// Parses a SPICE value: a float with an optional scale suffix
/// (`t g meg k m u n p f`, case-insensitive, `meg` before milli-`m`) and
/// any trailing unit letters ignored (`2.2kOhm`, `100nF`).
fn parse_value(tok: &Tok<'_>) -> Result<f64, NetlistError> {
    let s = tok.s;
    let split = float_prefix_len(s);
    let Ok(base) = s[..split].parse::<f64>() else {
        return Err(tok.err(NetlistErrorKind::BadValue(s.to_string())));
    };
    let suffix = &s[split..];
    if !suffix.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(tok.err(NetlistErrorKind::BadValue(s.to_string())));
    }
    let lower = suffix.to_ascii_lowercase();
    let scale = if lower.starts_with("meg") {
        1e6
    } else {
        match lower.chars().next() {
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            // Any other letters are a bare unit ("5Ohm") — no scaling.
            Some(_) | None => 1.0,
        }
    };
    let v = base * scale;
    if !v.is_finite() {
        return Err(tok.err(NetlistErrorKind::NonFiniteValue(v)));
    }
    Ok(v)
}

/// Length of the longest prefix of `s` that `f64::from_str` accepts (0
/// when none does), found in one left-to-right scan of its grammar: an
/// optional sign, then `inf`, `infinity` or `nan` in any case, or digits
/// with an optional `.` and an optional exponent. Trying every prefix
/// with `parse` instead costs time quadratic in the token length.
fn float_prefix_len(s: &str) -> usize {
    let b = s.as_bytes();
    let digits = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let sign = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    for word in ["infinity", "inf", "nan"] {
        let head = b.get(sign..sign + word.len());
        if head.is_some_and(|h| h.eq_ignore_ascii_case(word.as_bytes())) {
            return sign + word.len();
        }
    }
    let int = digits(sign);
    let mut end = sign + int;
    let mut frac = 0;
    if b.get(end) == Some(&b'.') {
        frac = digits(end + 1);
        end += 1 + frac;
    }
    if int + frac == 0 {
        return 0;
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let exp_sign = usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        let exp = digits(end + 1 + exp_sign);
        if exp > 0 {
            end += 1 + exp_sign + exp;
        }
    }
    end
}

/// A bus or element name borrowed from the text, hashed and compared
/// ASCII-case-insensitively, so interning and the duplicate-element check
/// allocate nothing per card.
#[derive(Clone, Copy)]
struct Name<'a>(&'a str);

impl PartialEq for Name<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Name<'_> {}

impl Hash for Name<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0
            .bytes()
            .for_each(|b| h.write_u8(b.to_ascii_lowercase()));
    }
}

struct Parser<'a> {
    net: Network,
    /// Bus name → index (the first spelling seen is what `Network`
    /// stores).
    bus_of_name: HashMap<Name<'a>, usize>,
    /// Element name (first spelling) → the line of its card.
    element_names: HashMap<Name<'a>, usize>,
}

impl<'a> Parser<'a> {
    /// Interns a node token: ground alias or bus index (creating the bus
    /// on first sight).
    fn node(&mut self, tok: &Tok<'a>) -> usize {
        if is_ground(tok.s) {
            return GROUND;
        }
        let net = &mut self.net;
        *self
            .bus_of_name
            .entry(Name(tok.s))
            .or_insert_with(|| net.add_bus(tok.s))
    }

    /// Looks up a bus that must already exist; ground is rejected. Used by
    /// `.port`/`.probe` so a typo cannot silently create a floating bus.
    fn existing_bus(&self, tok: &Tok<'_>, context: &'static str) -> Result<usize, NetlistError> {
        if is_ground(tok.s) {
            return Err(tok.err(NetlistErrorKind::GroundInvalid { context }));
        }
        self.bus_of_name
            .get(&Name(tok.s))
            .copied()
            .ok_or_else(|| tok.err(NetlistErrorKind::UnknownBus(tok.s.to_string())))
    }

    /// Handles one logical line. Returns `false` on `.end`.
    fn card(&mut self, toks: &[Tok<'a>]) -> Result<bool, NetlistError> {
        let head = toks[0];
        let fields = |n: usize, names: &[&'static str]| -> Result<(), NetlistError> {
            debug_assert_eq!(names.len(), n);
            if toks.len() < n + 1 {
                return Err(toks[toks.len() - 1].err(NetlistErrorKind::MissingField {
                    card: head.s.to_string(),
                    field: names[toks.len() - 1],
                }));
            }
            if toks.len() > n + 1 {
                return Err(toks[n + 1].err(NetlistErrorKind::ExtraTokens {
                    card: head.s.to_string(),
                }));
            }
            Ok(())
        };
        let circuit =
            |tok: Tok<'_>, e: bdsm_circuit::CircuitError| tok.err(NetlistErrorKind::Circuit(e));

        if let Some(directive) = head.s.strip_prefix('.') {
            match directive.to_ascii_lowercase().as_str() {
                "end" => return Ok(false),
                "bus" => {
                    fields(1, &["bus name"])?;
                    let name = toks[1];
                    if is_ground(name.s) {
                        return Err(name.err(NetlistErrorKind::GroundInvalid {
                            context: "a declared bus",
                        }));
                    }
                    if self.bus_of_name.contains_key(&Name(name.s)) {
                        return Err(name.err(NetlistErrorKind::DuplicateBus(name.s.to_string())));
                    }
                    let i = self.net.add_bus(name.s);
                    self.bus_of_name.insert(Name(name.s), i);
                }
                "port" => {
                    fields(1, &["bus name"])?;
                    let bus = self.existing_bus(&toks[1], "a port")?;
                    self.net.add_port(bus).map_err(|e| circuit(toks[1], e))?;
                }
                "probe" => {
                    fields(1, &["bus name"])?;
                    let bus = self.existing_bus(&toks[1], "a probe")?;
                    self.net.add_probe(bus).map_err(|e| circuit(toks[1], e))?;
                }
                _ => return Err(head.err(NetlistErrorKind::UnknownDirective(head.s.to_string()))),
            }
            return Ok(true);
        }

        match head.s.chars().next().map(|c| c.to_ascii_uppercase()) {
            Some(kind @ ('R' | 'C' | 'L')) => {
                fields(3, &["first node", "second node", "value"])?;
                let a = self.node(&toks[1]);
                let b = self.node(&toks[2]);
                let v = parse_value(&toks[3])?;
                match kind {
                    'R' => self.net.add_resistor(a, b, v),
                    'C' => self.net.add_capacitor(a, b, v),
                    _ => self.net.add_inductor(a, b, v),
                }
                .map_err(|e| circuit(head, e))?;
            }
            Some('I') => {
                fields(3, &["positive node", "negative node", "value"])?;
                let plus = self.node(&toks[1]);
                let minus = self.node(&toks[2]);
                parse_value(&toks[3])?; // amplitude is a model input, not stored
                let bus = match (plus, minus) {
                    (GROUND, GROUND) => {
                        return Err(head.err(NetlistErrorKind::GroundInvalid {
                            context: "both current-source terminals",
                        }))
                    }
                    (GROUND, b) | (b, GROUND) => b,
                    _ => return Err(head.err(NetlistErrorKind::CurrentSourceBetweenBuses)),
                };
                self.net
                    .add_current_source(bus)
                    .map_err(|e| circuit(head, e))?;
            }
            Some('V') => {
                fields(3, &["positive node", "negative node", "value"])?;
                let plus = self.node(&toks[1]);
                let minus = self.node(&toks[2]);
                parse_value(&toks[3])?; // amplitude is a model input, not stored
                self.net
                    .add_voltage_source(plus, minus)
                    .map_err(|e| circuit(head, e))?;
            }
            _ => return Err(head.err(NetlistErrorKind::UnknownCard(head.s.to_string()))),
        }
        if let Some((first, &first_line)) = self.element_names.get_key_value(&Name(head.s)) {
            let first = first.0.to_string();
            return Err(head.err(NetlistErrorKind::DuplicateElement { first, first_line }));
        }
        self.element_names.insert(Name(head.s), head.line);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsm_circuit::ElementKind;

    #[test]
    fn parses_cards_comments_and_continuations() {
        let net = parse_netlist(
            "* title comment\n\
             R1 a b 1k ; series\n\
             C1 b\n\
             + 0 100n\n\
             L1 b c 2.5u\n\
             V1 c 0 1\n\
             .port a\n\
             .probe b\n\
             .end\n\
             R9 never parsed",
        )
        .unwrap();
        assert_eq!(net.num_buses(), 3);
        assert_eq!(
            (net.bus_name(0), net.bus_name(1), net.bus_name(2)),
            ("a", "b", "c")
        );
        let kinds: Vec<ElementKind> = net.elements().iter().map(|e| e.kind).collect();
        // Suffix scaling is a product, so expectations use the same
        // products (100 × 1e-9 differs from the literal 100e-9 in the
        // last bit).
        assert_eq!(
            kinds,
            vec![
                ElementKind::Resistor(1.0 * 1e3),
                ElementKind::Capacitor(100.0 * 1e-9),
                ElementKind::Inductor(2.5 * 1e-6),
            ]
        );
        assert_eq!(net.elements()[1].b, GROUND);
        assert_eq!(net.voltage_sources().len(), 1);
        assert_eq!(net.current_sources().len(), 1); // from .port
        assert_eq!(net.probes().len(), 2); // .port + .probe
    }

    #[test]
    fn value_suffixes_scale() {
        let cases = [
            ("1t", 1e12),
            ("2G", 2e9),
            ("3MEG", 3e6),
            ("4k", 4e3),
            ("5m", 5e-3),
            ("6u", 6e-6),
            ("7n", 7e-9),
            ("8p", 8e-12),
            ("9f", 9e-15),
            ("2.2kOhm", 2.2e3),
            ("100nF", 100e-9),
            ("5Ohm", 5.0),
            ("1e-3", 1e-3),
            ("1e3k", 1e6),
        ];
        for (text, want) in cases {
            let tok = Tok {
                s: text,
                line: 1,
                col: 1,
            };
            let got = parse_value(&tok).unwrap();
            assert!(
                (got - want).abs() <= want.abs() * 1e-12,
                "{text}: got {got}, want {want}"
            );
        }
    }

    /// The longest prefix `f64::from_str` accepts, by trying every prefix
    /// from the longest down: the scan's reference.
    fn longest_parsable_prefix(s: &str) -> usize {
        (1..=s.len())
            .rev()
            .find(|&end| s.is_char_boundary(end) && s[..end].parse::<f64>().is_ok())
            .unwrap_or(0)
    }

    #[test]
    fn value_prefix_scan_matches_trial_parsing() {
        // The empty token plus a whitespace-separated table.
        let table = std::iter::once("").chain(
            "+ - . +. -.e1 .5 5. -5.e3 1.e1 .e1 e5 1e 1e+ 1e- 1E5 1e-3 1e5meg 1e5.5 1e3k 5meg \
             5MEG 2.2kOhm 100nF 1.2.3 1..2 +-1 --1 0x10 1_000 00012 12abc 1é é1 ٣ inf INF \
             -Infinity +infinityx infinit infx nan -NaNx na in 1e400 -1e400k 1e-400 5Ohm 7n"
                .split_whitespace(),
        );
        for text in table {
            assert_eq!(
                float_prefix_len(text),
                longest_parsable_prefix(text),
                "{text:?}"
            );
        }
        // With the same split, the value and the error kind follow from
        // the unchanged suffix rules.
        let value = |text| {
            parse_value(&Tok {
                s: text,
                line: 1,
                col: 1,
            })
            .map_err(|e| e.kind)
        };
        assert_eq!(value("1e").unwrap(), 1.0);
        assert_eq!(value("1e5meg").unwrap(), 1e5 * 1e6);
        assert_eq!(value("5meg").unwrap(), 5.0 * 1e6);
        assert_eq!(value("-.5k").unwrap(), -0.5 * 1e3);
        for text in ["inf", "-Infinity", "+infinityx", "NaN", "1e400"] {
            let kind = value(text).unwrap_err();
            assert!(
                matches!(kind, NetlistErrorKind::NonFiniteValue(_)),
                "{text}"
            );
        }
        for text in ["", "x1", ".", "1.2.3", "1e5.5", "0x10", "1é"] {
            let kind = value(text).unwrap_err();
            assert!(matches!(kind, NetlistErrorKind::BadValue(_)), "{text}");
        }
    }

    #[test]
    fn long_value_tokens_parse_in_linear_time() {
        // 10⁵ digits then 10⁵ letters: trying every prefix took tens of
        // seconds on such a token; one scan takes milliseconds.
        let token = "9".repeat(100_000) + &"k".repeat(100_000);
        let t = std::time::Instant::now();
        let err = parse_netlist(&format!("R1 a 0 {token}")).unwrap_err();
        assert!(matches!(err.kind, NetlistErrorKind::NonFiniteValue(_)));
        let secs = t.elapsed().as_secs_f64();
        assert!(secs < 2.0, "a 200k-character value took {secs:.2} s");
    }

    #[test]
    fn ground_aliases_and_case_insensitive_interning() {
        let net = parse_netlist(
            "R1 N1 gnd 1\n\
             R2 n1 GROUND 2\n\
             C1 n1 0 1u",
        )
        .unwrap();
        // All three cards touch the same bus (first spelling kept) and
        // three distinct ground spellings.
        assert_eq!(net.num_buses(), 1);
        assert_eq!(net.bus_name(0), "N1");
        assert_eq!(net.elements().len(), 3);
        assert!(net.elements().iter().all(|e| e.b == GROUND && e.a == 0));
    }

    #[test]
    fn current_source_injection_node() {
        let net = parse_netlist("R1 a 0 1\nI1 0 a 1m\nI2 a gnd 2m").unwrap();
        assert_eq!(net.current_sources().len(), 2);
        assert!(net.current_sources().iter().all(|s| s.node == 0));
        let err = parse_netlist("R1 a b 1\nI1 a b 1").unwrap_err();
        assert!(matches!(
            err.kind,
            NetlistErrorKind::CurrentSourceBetweenBuses
        ));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_netlist("R1 a 0 1\nR2 a 0 bogus").unwrap_err();
        assert_eq!((err.line, err.col), (2, 8));
        assert!(matches!(err.kind, NetlistErrorKind::BadValue(_)));

        let err = parse_netlist("Q1 a 0 1").unwrap_err();
        assert_eq!((err.line, err.col), (1, 1));
        assert!(matches!(err.kind, NetlistErrorKind::UnknownCard(_)));

        let err = parse_netlist("R1 a 0 1 extra").unwrap_err();
        assert_eq!((err.line, err.col), (1, 10));
        assert!(matches!(err.kind, NetlistErrorKind::ExtraTokens { .. }));

        let err = parse_netlist("R1 a 0").unwrap_err();
        assert!(matches!(err.kind, NetlistErrorKind::MissingField { .. }));

        let err = parse_netlist(".port nowhere").unwrap_err();
        assert!(matches!(err.kind, NetlistErrorKind::UnknownBus(_)));

        let err = parse_netlist(".bus a\n.bus A").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, NetlistErrorKind::DuplicateBus(_)));

        let err = parse_netlist("R1 a 0 1\nC1 a 0 1\nr1 a 0 1").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1));
        assert!(err.to_string().contains("repeats 'R1' of line 1"), "{err}");

        let err = parse_netlist(".weird x").unwrap_err();
        assert!(matches!(err.kind, NetlistErrorKind::UnknownDirective(_)));

        let err = parse_netlist("R1 a 0 -5").unwrap_err();
        assert!(matches!(
            err.kind,
            NetlistErrorKind::Circuit(bdsm_circuit::CircuitError::NonPositiveValue { .. })
        ));

        let err = parse_netlist("R1 a 0 1\nR2 a b 1e-310").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("1e-310"), "{err}");
        assert!(matches!(
            err.kind,
            NetlistErrorKind::Circuit(bdsm_circuit::CircuitError::InfiniteConductance { .. })
        ));
    }

    #[test]
    fn bus_directive_pins_index_order() {
        let net = parse_netlist(".bus z\n.bus y\nR1 y z 1").unwrap();
        assert_eq!(net.bus_name(0), "z");
        assert_eq!(net.bus_name(1), "y");
        assert_eq!((net.elements()[0].a, net.elements()[0].b), (1, 0));
    }
}
