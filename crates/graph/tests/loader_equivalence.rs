//! Differential tests of the edge-list loader. The sort-based builder and
//! the `str`-based parser that the counting-sort builder and the byte
//! parser replaced are kept here as references: on every input the
//! library must give the same offsets, targets and weight *bit patterns*
//! (`Csr`'s `PartialEq` treats `-0.0 == 0.0`), and the same errors.

use nulpa_graph::io::{read_edge_list, IoError};
use nulpa_graph::{Csr, DuplicatePolicy, GraphBuilder, VertexId, Weight};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Cursor};

type Edge = (VertexId, VertexId, Weight);
type Arrays = (Vec<usize>, Vec<VertexId>, Vec<u32>);

const POLICIES: [DuplicatePolicy; 3] = [
    DuplicatePolicy::SumWeights,
    DuplicatePolicy::KeepFirst,
    DuplicatePolicy::KeepAll,
];

fn arrays(g: &Csr) -> Arrays {
    let bits = g.weights().iter().map(|w| w.to_bits()).collect();
    (g.offsets().to_vec(), g.targets().to_vec(), bits)
}

/// The reference symmetrize: a global sort of the edge set, then a binary
/// search for each edge's reverse.
fn reference_symmetrize(edges: &mut Vec<Edge>) {
    let mut seen: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    seen.sort_unstable();
    let mut extra = Vec::new();
    for &(u, v, w) in edges.iter() {
        if u != v && seen.binary_search(&(v, u)).is_err() {
            extra.push((v, u, w));
        }
    }
    edges.extend(extra);
}

/// The reference build: a global sort by `(source, target, weight bits)`,
/// then duplicates merged along the sorted order.
fn reference_build(n: usize, mut edges: Vec<Edge>, policy: DuplicatePolicy) -> Arrays {
    edges.sort_unstable_by_key(|e| (e.0, e.1, e.2.to_bits()));
    match policy {
        DuplicatePolicy::KeepAll => {}
        DuplicatePolicy::SumWeights => edges.dedup_by(|next, acc| {
            if next.0 == acc.0 && next.1 == acc.1 {
                acc.2 += next.2;
                true
            } else {
                false
            }
        }),
        DuplicatePolicy::KeepFirst => edges.dedup_by_key(|&mut (u, v, _)| (u, v)),
    }
    let mut offsets = vec![0usize; n + 1];
    for &(u, _, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets = edges.iter().map(|e| e.1).collect();
    let bits = edges.iter().map(|e| e.2.to_bits()).collect();
    (offsets, targets, bits)
}

/// A weight from a palette of awkward values: signed zeros, subnormals,
/// negatives and magnitudes whose sums overflow.
fn weight(rng: &mut ChaCha8Rng) -> Weight {
    let subnormal = f32::from_bits(rng.gen_range(1u32..0x0080_0000));
    match rng.gen_range(0u32..10) {
        0 => -0.0,
        1 => 0.0,
        2 => subnormal,
        3 => -subnormal,
        4 => 1.0,
        5 => -(rng.gen_range(1u32..4) as Weight),
        6 => 3.0e38,
        7 => 0.1,
        _ => rng.gen_range(-10.0f32..10.0),
    }
}

/// A random edge multiset over `n` vertices with many duplicates,
/// reversed pairs and self loops.
fn edge_multiset(rng: &mut ChaCha8Rng, n: usize, m: usize) -> Vec<Edge> {
    let mut edges: Vec<Edge> = Vec::with_capacity(m);
    for _ in 0..m {
        let random = |rng: &mut ChaCha8Rng| rng.gen_range(0..n as VertexId);
        let (u, v) = match (rng.gen_range(0u32..6), edges.len()) {
            (0, k) if k > 0 => {
                let e = edges[rng.gen_range(0..k)];
                (e.0, e.1)
            }
            (1, k) if k > 0 => {
                let e = edges[rng.gen_range(0..k)];
                (e.1, e.0)
            }
            (2, _) => {
                let u = random(rng);
                (u, u)
            }
            _ => (random(rng), random(rng)),
        };
        edges.push((u, v, weight(rng)));
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every `DuplicatePolicy` × `keep_self_loops` × symmetrize on/off.
    #[test]
    fn builder_matches_sort_based_reference(
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        m in 0usize..300,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges = edge_multiset(&mut rng, n, m);
        for policy in POLICIES {
            for keep_self_loops in [false, true] {
                for symmetrize in [false, true] {
                    let mut b = GraphBuilder::new(n)
                        .keep_self_loops(keep_self_loops)
                        .duplicate_policy(policy)
                        .add_edges(edges.iter().copied());
                    if symmetrize {
                        b = b.symmetrize();
                    }
                    let got = arrays(&b.build());

                    let mut want: Vec<Edge> = edges.clone();
                    want.retain(|e| keep_self_loops || e.0 != e.1);
                    if symmetrize {
                        reference_symmetrize(&mut want);
                    }
                    let want = reference_build(n, want, policy);
                    prop_assert_eq!(
                        got, want,
                        "policy {:?}, self loops {}, symmetrize {}",
                        policy, keep_self_loops, symmetrize
                    );
                }
            }
        }
    }

    /// Edges queued after `symmetrize` are not mirrored by it, whatever
    /// the builder does with the edges it has already grouped.
    #[test]
    fn builder_matches_reference_across_symmetrize_calls(
        seed in 0u64..u64::MAX,
        n in 1usize..30,
        m in 0usize..200,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges = edge_multiset(&mut rng, n, m);
        let (a, rest) = edges.split_at(rng.gen_range(0..=m));
        let (b, c) = rest.split_at(rng.gen_range(0..=rest.len()));
        let got = GraphBuilder::new(n)
            .add_edges(a.iter().copied())
            .symmetrize()
            .add_edges(b.iter().copied())
            .symmetrize()
            .add_edges(c.iter().copied())
            .build();

        fn no_loops(part: &[Edge]) -> impl Iterator<Item = Edge> + '_ {
            part.iter().copied().filter(|e| e.0 != e.1)
        }
        let mut want: Vec<Edge> = no_loops(a).collect();
        reference_symmetrize(&mut want);
        want.extend(no_loops(b));
        reference_symmetrize(&mut want);
        want.extend(no_loops(c));
        prop_assert_eq!(arrays(&got), reference_build(n, want, DuplicatePolicy::SumWeights));
    }
}

/// What the reference loader does with an input.
#[derive(Debug)]
enum Outcome {
    Graph(Arrays),
    /// The error's `Display` text.
    Error(String),
    /// `GraphBuilder::new` panics: `|V|` leaves no u32 sentinel.
    Panics,
}

/// The reference parser: `BufRead::lines`, `str::split_whitespace` and
/// `str::parse`, feeding the reference builder.
fn reference_read<R: BufRead>(reader: R, num_vertices: Option<usize>, symmetrize: bool) -> Outcome {
    let parse_err = |line: usize, msg: &str| {
        Outcome::Error(
            IoError::Parse {
                line,
                msg: msg.into(),
            }
            .to_string(),
        )
    };
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_id: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => return Outcome::Error(IoError::Io(e).to_string()),
        };
        let lineno = lineno + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let Ok(u) = it.next().unwrap().parse::<u64>() else {
            return parse_err(lineno, "bad source vertex");
        };
        let Some(v) = it.next() else {
            return parse_err(lineno, "missing target vertex");
        };
        let Ok(v) = v.parse::<u64>() else {
            return parse_err(lineno, "bad target vertex");
        };
        let w: f32 = match it.next().map(str::parse) {
            Some(Ok(w)) => w,
            Some(Err(_)) => return parse_err(lineno, "bad weight"),
            None => 1.0,
        };
        if !w.is_finite() {
            return parse_err(lineno, "non-finite weight");
        }
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return parse_err(lineno, "vertex id exceeds u32 range");
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId, w));
    }
    let n = match num_vertices {
        Some(n) => {
            if !edges.is_empty() && max_id as usize >= n {
                return parse_err(0, &format!("vertex {max_id} >= |V| = {n}"));
            }
            n
        }
        None if edges.is_empty() => 0,
        None => max_id as usize + 1,
    };
    if n >= u32::MAX as usize {
        return Outcome::Panics;
    }
    edges.retain(|e| e.0 != e.1);
    if symmetrize {
        reference_symmetrize(&mut edges);
    }
    Outcome::Graph(reference_build(n, edges, DuplicatePolicy::SumWeights))
}

fn pick<'a>(rng: &mut ChaCha8Rng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

const SPACES: &[&str] = &[
    " ", " ", "\t", "  ", "\x0B", "\x0C", "\r", "\u{A0}", "\u{3000}", "\u{85}",
];
const IDS: &[&str] = &[
    "+3",
    "007",
    "4294967295",
    "4294967294",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "+",
    "x",
    "1#",
    "#",
    "\u{e9}",
];
/// Weights `str::parse` accepts, and tokens it rejects or reads as
/// non-finite.
const WEIGHTS: &[&str] = &[
    "1",
    "2.5",
    "-0",
    "0",
    "-0.0",
    "1e-45",
    "-3.25",
    "1e38",
    ".5",
    "5.",
    "+2",
    "0001",
    "1234567",
    "12345678",
    "16777217",
    "123456789",
    "999999999",
    "4294967297",
];
const BAD_WEIGHTS: &[&str] = &[
    "inf", "-inf", "nan", "NaN", "infinity", "1e39", "1e", "#", "%x", "0x10", "1_0", "\u{e9}",
];
const TAILS: &[&str] = &["junk", "#c", "%", "\u{e9}", "1 2 3"];

/// How a generated edge list may go wrong.
#[derive(Clone, Copy, PartialEq)]
enum Noise {
    /// Only valid lines.
    Clean,
    /// Invalid and out-of-range tokens.
    Tokens,
    /// A few random byte edits to otherwise valid lines. These lines hold
    /// no token of more than two digits, so that no edit can make an id
    /// large enough for the graph to need much memory.
    Bytes,
}

/// One line of a grammar-generated edge list, without its terminator.
fn line(rng: &mut ChaCha8Rng, max_id: u32, noise: Noise) -> String {
    let mut s = String::new();
    let space = |rng: &mut ChaCha8Rng, s: &mut String| s.push_str(pick(rng, SPACES));
    let id = |rng: &mut ChaCha8Rng| {
        if noise == Noise::Tokens && rng.gen_range(0u32..12) == 0 {
            pick(rng, IDS).to_string()
        } else {
            rng.gen_range(0..max_id).to_string()
        }
    };
    if rng.gen_bool(0.2) {
        space(rng, &mut s);
    }
    match rng.gen_range(0u32..20) {
        0 => {}
        1 => s.push_str(pick(rng, &["# comment", "%", "#0 1", "% \u{e9}"])),
        2 if noise != Noise::Clean => s.push_str(&id(rng)),
        _ => {
            s.push_str(&id(rng));
            space(rng, &mut s);
            s.push_str(&id(rng));
            if rng.gen_bool(0.6) {
                space(rng, &mut s);
                match (rng.gen_range(0u32..10), noise) {
                    (0, Noise::Clean | Noise::Tokens) => s.push_str(pick(rng, WEIGHTS)),
                    (1, Noise::Tokens) => s.push_str(pick(rng, BAD_WEIGHTS)),
                    (_, Noise::Bytes) => s.push_str(&rng.gen_range(0u32..10).to_string()),
                    _ => s.push_str(&weight(rng).to_string()),
                }
                if rng.gen_bool(0.1) {
                    space(rng, &mut s);
                    s.push_str(pick(rng, TAILS));
                }
            }
        }
    }
    if rng.gen_bool(0.1) {
        space(rng, &mut s);
    }
    s
}

/// A grammar-generated edge list.
fn edge_list_text(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let max_id = rng.gen_range(1u32..25);
    let noise = [Noise::Clean, Noise::Tokens, Noise::Bytes][rng.gen_range(0..3)];
    let mut text = Vec::new();
    for _ in 0..rng.gen_range(0usize..30) {
        text.extend_from_slice(line(rng, max_id, noise).as_bytes());
        text.extend_from_slice(if rng.gen_bool(0.2) { b"\r\n" } else { b"\n" });
    }
    if rng.gen_bool(0.3) {
        // a last line without a newline
        text.extend_from_slice(line(rng, max_id, noise).as_bytes());
    }
    if noise == Noise::Bytes {
        const BYTES: &[u8] = b"\n\r \t\x0B#%+-.e09\xff\xc3\xa9\x80";
        for _ in 0..rng.gen_range(1usize..4) {
            let b = BYTES[rng.gen_range(0..BYTES.len())];
            let at = rng.gen_range(0..=text.len());
            match rng.gen_range(0u32..3) {
                0 => text.insert(at, b),
                1 if at < text.len() => text[at] = b,
                _ if at < text.len() => {
                    text.remove(at);
                }
                _ => {}
            }
        }
    }
    text
}

fn check_against_reference(text: &[u8], num_vertices: Option<usize>, symmetrize: bool) {
    let want = reference_read(Cursor::new(text), num_vertices, symmetrize);
    let shown = String::from_utf8_lossy(text);
    for cap in [1, 7, 8192] {
        let reader = BufReader::with_capacity(cap, Cursor::new(text));
        let got = read_edge_list(reader, num_vertices, symmetrize);
        match (&want, got) {
            (Outcome::Graph(want), Ok(g)) => assert_eq!(&arrays(&g), want, "{shown:?}"),
            (Outcome::Error(want), Err(e)) => assert_eq!(&e.to_string(), want, "{shown:?}"),
            (Outcome::Panics, Err(_)) => {}
            (want, got) => panic!("{shown:?} (capacity {cap}): want {want:?}, got {got:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Ok with a bit-identical CSR exactly when the reference is, the
    /// same error otherwise, and an error where the reference panics.
    /// Capacity 1 makes every line cross a chunk boundary.
    #[test]
    fn parser_matches_str_reference(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let text = edge_list_text(&mut rng);
        let num_vertices = rng.gen_bool(0.3).then(|| rng.gen_range(0usize..30));
        check_against_reference(&text, num_vertices, rng.gen_bool(0.5));
    }
}

#[test]
fn parser_matches_str_reference_on_edge_cases() {
    let cases: &[&[u8]] = &[
        b"",
        b"\n",
        b"0 1",
        b"0 1\r",
        b"0 1\r\n1 2 3.5",
        b"+0 007 +01.5\n",
        b"0\x0B1\x0C2\t\r\n",
        "0\u{A0}1\u{3000}3\n".as_bytes(),
        "0\u{85}1\n".as_bytes(),
        "\u{2028}# comment\n0 1\n".as_bytes(),
        b"0 1 2 junk\n",
        b"0 1 #c\n",
        b"0 % 1\n",
        b"  #0 1\n%\n1 2\n",
        b"18446744073709551616 1\n",
        b"0 18446744073709551615\n",
        b"4294967295 0\n",
        b"4294967295 0 x\n",
        b"4294967294 0\n",
        b"0 1 inf\n",
        b"0 1 nan\n",
        b"0 1 1e39\n",
        b"0 1 -0\n1 0 0\n",
        b"0 1 1e-45\n",
        b"0 1 16777217\n",
        b"0 1\n0 2 \xff\n",
        b"0 1\n\xc3\n",
        b"# c\n\n\r\n0 1\n0 x\n",
        b"3 3\n",
        b"1 0 2\n1 0 -0\n0 1 0\n",
    ];
    for text in cases {
        for num_vertices in [None, Some(0), Some(4), Some(u32::MAX as usize)] {
            for symmetrize in [false, true] {
                check_against_reference(text, num_vertices, symmetrize);
            }
        }
    }
}
