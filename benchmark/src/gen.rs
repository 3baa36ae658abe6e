//! Seeded input generators: netlist text and query streams.
//!
//! Everything here is a pure function of `(workload, seed)`. The program
//! under test sees only the generated netlist text and the generated
//! queries; [`Fnv`] digests both so two runs can prove they measured the
//! same inputs.

use std::fmt::Write as _;

/// SplitMix64: tiny, well-distributed, and trivially reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// generator never shifts another's.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = Fnv::new();
        h.bytes(label.as_bytes());
        Rng(seed ^ h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// `nominal` scaled by a log-uniform factor in `[1/1.2, 1.2]`.
    pub fn jitter(&mut self, nominal: f64) -> f64 {
        nominal * (1.2f64.ln() * (2.0 * self.unit() - 1.0)).exp()
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Ground, as a node index of [`Netlist`] elements.
pub const GND: usize = usize::MAX;

/// A generated RC network: the text handed to the program, plus the
/// element list the harness's own reference model is assembled from.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub text: String,
    pub buses: usize,
    /// `(a, b, ohms)`; `b` may be [`GND`].
    pub resistors: Vec<(usize, usize, f64)>,
    /// `(node, farads)`, all grounded.
    pub capacitors: Vec<(usize, f64)>,
    /// Port buses, in port order.
    pub ports: Vec<usize>,
}

struct NetlistBuilder {
    net: Netlist,
    names: Vec<String>,
}

impl NetlistBuilder {
    fn new(title: &str, names: Vec<String>) -> NetlistBuilder {
        let mut text = String::with_capacity(names.len() * 80);
        let _ = writeln!(text, "* {title}");
        for name in &names {
            let _ = writeln!(text, ".bus {name}");
        }
        NetlistBuilder {
            net: Netlist {
                text,
                buses: names.len(),
                resistors: Vec::new(),
                capacitors: Vec::new(),
                ports: Vec::new(),
            },
            names,
        }
    }

    fn node(&self, i: usize) -> &str {
        if i == GND {
            "0"
        } else {
            &self.names[i]
        }
    }

    /// Values go through the text with 17 significant digits, so the
    /// reference model and the parsed network hold the same doubles.
    fn resistor(&mut self, a: usize, b: usize, ohms: f64) {
        let k = self.net.resistors.len();
        let line = format!("R{k} {} {} {ohms:.16e}", self.node(a), self.node(b));
        self.net.text.push_str(&line);
        self.net.text.push('\n');
        self.net.resistors.push((a, b, ohms));
    }

    fn capacitor(&mut self, a: usize, farads: f64) {
        let k = self.net.capacitors.len();
        let line = format!("C{k} {} 0 {farads:.16e}", self.node(a));
        self.net.text.push_str(&line);
        self.net.text.push('\n');
        self.net.capacitors.push((a, farads));
    }

    fn port(&mut self, a: usize) {
        let line = format!(".port {}", self.node(a));
        self.net.text.push_str(&line);
        self.net.text.push('\n');
        self.net.ports.push(a);
    }

    fn finish(mut self) -> Netlist {
        self.net.text.push_str(".end\n");
        self.net
    }
}

/// Loaded RC ladder: `n` buses in a chain (1 Ω, 1 mF nominal), a 5 Ω
/// load at the far end and one 5 Ω load tap in every group of five
/// buses, at a seeded position inside the group. Ports at both ends.
pub fn ladder(n: usize, seed: u64) -> Netlist {
    let mut rng = Rng::stream(seed, "ladder");
    let names = (0..n).map(|i| format!("n{i}")).collect();
    let mut b = NetlistBuilder::new(&format!("loaded RC ladder, n = {n}, seed {seed}"), names);
    for i in 0..n - 1 {
        b.resistor(i, i + 1, rng.jitter(1.0));
    }
    for i in 0..n {
        b.capacitor(i, rng.jitter(1e-3));
    }
    b.resistor(n - 1, GND, rng.jitter(5.0));
    for group in (0..n).step_by(5) {
        let tap = (group + rng.below(5)).min(n - 1);
        b.resistor(tap, GND, rng.jitter(5.0));
    }
    b.port(0);
    b.port(n - 1);
    b.finish()
}

/// `rows × cols` RC mesh (1 Ω, 1 mF nominal), 2 Ω loads at the four
/// corners plus `rows * cols / 625` seeded interior load taps. Ports at
/// two opposite corners.
pub fn mesh(rows: usize, cols: usize, seed: u64) -> Netlist {
    let mut rng = Rng::stream(seed, "mesh");
    let at = |i: usize, j: usize| i * cols + j;
    let names = (0..rows * cols)
        .map(|k| format!("g{}_{}", k / cols, k % cols))
        .collect();
    let title = format!("{rows}x{cols} RC mesh, seed {seed}");
    let mut b = NetlistBuilder::new(&title, names);
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                b.resistor(at(i, j), at(i, j + 1), rng.jitter(1.0));
            }
            if i + 1 < rows {
                b.resistor(at(i, j), at(i + 1, j), rng.jitter(1.0));
            }
            b.capacitor(at(i, j), rng.jitter(1e-3));
        }
    }
    for (i, j) in [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)] {
        b.resistor(at(i, j), GND, rng.jitter(2.0));
    }
    for _ in 0..rows * cols / 625 {
        let tap = rng.below(rows * cols);
        b.resistor(tap, GND, rng.jitter(2.0));
    }
    b.port(at(0, 0));
    b.port(at(rows - 1, cols - 1));
    b.finish()
}

/// `count` distinct angular frequencies, log-spaced over `[lo, hi]` with an
/// offset inside each slot that depends on `label` alone — distinct by
/// construction, and the same on every seed.
pub fn shift_set(count: usize, lo: f64, hi: f64, label: &str) -> Vec<f64> {
    let mut rng = Rng::stream(0, label);
    (0..count)
        .map(|i| {
            let pos = (i as f64 + 0.8 * rng.unit()) / count as f64;
            lo * (hi / lo).powf(pos)
        })
        .collect()
}

/// Zipf sampler over `0..n` with exponent `s`; rank → item through a
/// seeded permutation so popularity is not tied to frequency order.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// One request a client sends. Frequencies are indices into the
/// workload's working set.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `transfer_sweep` over these working-set entries.
    Sweep(Vec<usize>),
    /// One `sweep_batch` call: several sweeps sent together.
    Batch(Vec<Vec<usize>>),
    /// `port_response` of one port pair over these working-set entries.
    Port {
        out_port: usize,
        in_port: usize,
        freqs: Vec<usize>,
    },
    /// `transient` with a step input on one port that switches on at
    /// `on_step`.
    Transient {
        port: usize,
        steps: usize,
        on_step: usize,
    },
}

impl Request {
    /// Working-set entries this request touches, in evaluation order.
    pub fn freqs(&self) -> Vec<usize> {
        match self {
            Request::Sweep(f) | Request::Port { freqs: f, .. } => f.clone(),
            Request::Batch(qs) => qs.concat(),
            Request::Transient { .. } => Vec::new(),
        }
    }

    fn digest(&self, h: &mut Fnv) {
        match self {
            Request::Sweep(f) => {
                h.u64(1);
                f.iter().for_each(|&i| h.u64(i as u64));
            }
            Request::Batch(qs) => {
                h.u64(4);
                for f in qs {
                    h.u64(f.len() as u64);
                    f.iter().for_each(|&i| h.u64(i as u64));
                }
            }
            Request::Port {
                out_port,
                in_port,
                freqs,
            } => {
                h.u64(2);
                h.u64(*out_port as u64);
                h.u64(*in_port as u64);
                freqs.iter().for_each(|&i| h.u64(i as u64));
            }
            Request::Transient {
                port,
                steps,
                on_step,
            } => {
                h.u64(3);
                h.u64(*port as u64);
                h.u64(*steps as u64);
                h.u64(*on_step as u64);
            }
        }
    }
}

/// How a workload's requests are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every request is a sweep of `freqs` entries drawn uniformly.
    UniformSweeps { freqs: usize },
    /// Every request is a batch of `queries` such sweeps.
    UniformBatches { queries: usize, freqs: usize },
    /// Every block of 50 requests holds exactly 35 one-frequency
    /// sweeps, 10 four-frequency port responses and 5 200-step
    /// transients (70 / 20 / 10 %), in seeded order; frequencies Zipf(0.6)-popular. Exact
    /// shares keep the work of one round from depending on the luck of
    /// its draw; the flat exponent keeps the hit rate near a third under a
    /// capacity-16 cache, so the median request is a miss in every round
    /// (at 1.1 the fast share sits at 42 % and a lucky round flips it).
    ZipfChurn,
    /// Request `k` sweeps working-set entry `k mod len`: all distinct
    /// within one pass over the set.
    Sequential,
}

/// An endless, seeded request stream over a working set of `set_len`
/// shifts of a model with `ports` ports.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    mix: Mix,
    set_len: usize,
    ports: usize,
    zipf: Option<Zipf>,
    /// Request kinds left in the current churn block, last one next.
    block: Vec<u8>,
    issued: usize,
}

impl Stream {
    pub fn new(mix: Mix, set_len: usize, ports: usize, seed: u64, label: &str) -> Stream {
        // Which shifts are popular is part of the workload, not of the
        // seed: only the draws are seeded, so the hit rate moves with
        // sampling noise alone.
        let zipf = (mix == Mix::ZipfChurn)
            .then(|| Zipf::new(set_len, 0.6, &mut Rng::stream(0, "zipf-ranks")));
        Stream {
            rng: Rng::stream(seed, label),
            mix,
            set_len,
            ports,
            zipf,
            block: Vec::new(),
            issued: 0,
        }
    }

    /// Requests drawn so far: the index of the next one.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Draws the next `count` requests.
    pub fn take(&mut self, count: usize) -> Vec<Request> {
        (0..count).map(|_| self.next_request()).collect()
    }

    fn uniform(&mut self, freqs: usize) -> Vec<usize> {
        (0..freqs).map(|_| self.rng.below(self.set_len)).collect()
    }

    fn next_request(&mut self) -> Request {
        let k = self.issued;
        self.issued += 1;
        match self.mix {
            Mix::Sequential => Request::Sweep(vec![k % self.set_len]),
            Mix::UniformSweeps { freqs } => Request::Sweep(self.uniform(freqs)),
            Mix::UniformBatches { queries, freqs } => {
                Request::Batch((0..queries).map(|_| self.uniform(freqs)).collect())
            }
            Mix::ZipfChurn => {
                if self.block.is_empty() {
                    self.block = [vec![0; 35], vec![1; 10], vec![2; 5]].concat();
                    for i in (1..self.block.len()).rev() {
                        self.block.swap(i, self.rng.below(i + 1));
                    }
                }
                let zipf = self.zipf.as_ref().expect("churn stream has a sampler");
                match self.block.pop().expect("block was just refilled") {
                    0 => Request::Sweep(vec![zipf.sample(&mut self.rng)]),
                    1 => Request::Port {
                        out_port: self.rng.below(self.ports),
                        in_port: self.rng.below(self.ports),
                        freqs: (0..4).map(|_| zipf.sample(&mut self.rng)).collect(),
                    },
                    _ => Request::Transient {
                        port: self.rng.below(self.ports),
                        steps: 200,
                        on_step: self.rng.below(20),
                    },
                }
            }
        }
    }
}

/// Digest of everything the program is fed: the netlist text, the working
/// set and the first `probe` requests of every client stream.
pub fn input_digest(text: &str, working_set: &[f64], streams: &[Stream], probe: usize) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    working_set.iter().for_each(|&w| h.f64(w));
    for s in streams {
        for r in s.clone().take(probe) {
            r.digest(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_and_streams_are_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.iter().all(|&v| v == a[0]));
        let mut x = Rng::stream(7, "a");
        let mut y = Rng::stream(7, "b");
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let j = r.jitter(2.0);
            assert!((2.0 / 1.2 - 1e-12..=2.4 + 1e-12).contains(&j));
        }
    }

    #[test]
    fn fnv_matches_known_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn netlists_repeat_per_seed_and_differ_across_seeds() {
        let a = ladder(50, 11);
        let b = ladder(50, 11);
        let c = ladder(50, 12);
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, c.text);
        assert_eq!(a.buses, 50);
        assert_eq!(a.resistors.len(), 49 + 1 + 10);
        assert_eq!(a.capacitors.len(), 50);
        assert_eq!(a.ports, vec![0, 49]);
        let m = mesh(25, 25, 11);
        assert_eq!(m.text, mesh(25, 25, 11).text);
        assert_ne!(m.text, mesh(25, 25, 13).text);
        assert_eq!(m.resistors.len(), 2 * 25 * 24 + 4 + 1);
        assert!(m.text.ends_with(".end\n"));
    }

    #[test]
    fn shift_sets_are_distinct_sorted_and_in_band() {
        let s = shift_set(64, 60.0, 3.5e3, "ws");
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s[0] >= 60.0 && s[63] <= 3.5e3);
        assert_eq!(s, shift_set(64, 60.0, 3.5e3, "ws"));
        assert_ne!(s, shift_set(64, 60.0, 3.5e3, "other"));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(5);
        let z = Zipf::new(64, 1.1, &mut rng);
        let mut counts = vec![0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let top = z.item_of_rank[0];
        let bottom = z.item_of_rank[63];
        assert!(counts[top] > 10 * counts[bottom].max(1));
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn churn_mix_has_the_stated_shares() {
        let mut s = Stream::new(Mix::ZipfChurn, 64, 2, 11, "c0");
        let reqs = s.take(1000);
        for block in reqs.chunks(50) {
            let count = |f: fn(&Request) -> bool| block.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Request::Sweep(_))), 35);
            assert_eq!(count(|r| matches!(r, Request::Port { .. })), 10);
            assert_eq!(count(|r| matches!(r, Request::Transient { .. })), 5);
        }
        assert_ne!(reqs[..50], reqs[50..100], "blocks are shuffled afresh");
        assert!(reqs.iter().all(|r| r.freqs().iter().all(|&i| i < 64)));
        let port4 = |r: &Request| !matches!(r, Request::Port { .. }) || r.freqs().len() == 4;
        assert!(reqs.iter().all(port4));
    }

    #[test]
    fn batches_hold_the_stated_shape() {
        let mix = Mix::UniformBatches {
            queries: 4,
            freqs: 8,
        };
        let mut s = Stream::new(mix, 48, 2, 11, "b0");
        for r in s.take(20) {
            let Request::Batch(qs) = &r else {
                panic!("not a batch: {r:?}")
            };
            assert_eq!(qs.len(), 4);
            assert!(qs.iter().all(|f| f.len() == 8));
            assert_eq!(r.freqs().len(), 32);
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let d = |seed| {
            let net = ladder(40, seed);
            let ws = shift_set(8, 60.0, 3.5e3, "ws");
            let st = [Stream::new(
                Mix::UniformSweeps { freqs: 8 },
                8,
                2,
                seed,
                "c0",
            )];
            input_digest(&net.text, &ws, &st, 64)
        };
        assert_eq!(d(11), d(11));
        assert_ne!(d(11), d(12));
    }

    #[test]
    fn sequential_stream_cycles_the_set() {
        let mut s = Stream::new(Mix::Sequential, 3, 2, 1, "x");
        let got: Vec<usize> = s.take(5).iter().map(|r| r.freqs()[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1]);
    }
}
