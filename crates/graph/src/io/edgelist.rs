//! Whitespace-separated edge lists: `u v [w]` per line, `#`/`%` comments.
//! Vertex ids are 0-based. Missing weights default to 1 (unweighted input,
//! as the paper assumes).
//!
//! The reader streams over [`BufRead::fill_buf`] and parses bytes in
//! place; only a line that crosses a chunk boundary is copied, into one
//! reused carry buffer. It accepts exactly the grammar of a reader that
//! splits `BufRead::lines` with `str::split_whitespace` and parses tokens
//! with `str::parse`:
//!
//! * whitespace is `char::is_whitespace`: in ASCII that is space, `\t`,
//!   `\n`, `\x0B`, `\x0C` and `\r` (`u8::is_ascii_whitespace` leaves out
//!   `\x0B`), so CRLF endings need no special case. A line with any
//!   non-ASCII byte is checked as UTF-8 and split with
//!   `str::split_whitespace`, so Unicode whitespace splits tokens there
//!   too;
//! * a line whose first token starts with `#` or `%` is a comment; a `#` or
//!   `%` later on is part of a token (so `0 1 #c` has a bad weight);
//! * ids take an optional leading `+` and leading zeros. An id that
//!   overflows `u64` is a "bad ... vertex"; one from `u32::MAX` up is
//!   rejected with "vertex id exceeds u32 range" once the weight is known
//!   to be valid and finite. A graph of `u32::MAX` or more vertices (from
//!   an id of `u32::MAX - 1` or from `num_vertices`) leaves no sentinel id
//!   free and is an error at line 0;
//! * weights follow `f32::from_str`; `inf` and `nan` parse but are
//!   rejected as a "non-finite weight";
//! * tokens after the weight are ignored (`0 1 2 junk` is an edge);
//! * the last line needs no newline;
//! * invalid UTF-8 in a line is an [`IoError::Io`] of kind `InvalidData`.
//!
//! Line numbers in errors count every line from 1, blank and comment
//! lines included.

use super::{parse_err, IoError};
use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId, Weight};
use std::io::{BufRead, ErrorKind, Write};

/// Read an edge list. `num_vertices` may be larger than the max id seen;
/// pass `None` to size the graph to `max_id + 1`. When `symmetrize` is
/// set, missing reverse edges are added (paper's preprocessing).
pub fn read_edge_list<R: BufRead>(
    mut reader: R,
    num_vertices: Option<usize>,
    symmetrize: bool,
) -> Result<Csr, IoError> {
    let mut parser = LineParser::default();
    // the start of a line that the current chunk does not finish
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            break;
        }
        let used = chunk.len();
        let mut rest = chunk;
        if !carry.is_empty() {
            let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                reader.consume(used);
                continue;
            };
            carry.extend_from_slice(&rest[..end]);
            parser.parse(&carry)?;
            carry.clear();
            rest = &rest[end + 1..];
        }
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            parser.parse(&rest[..end])?;
            rest = &rest[end + 1..];
        }
        carry.extend_from_slice(rest);
        reader.consume(used);
    }
    if !carry.is_empty() {
        parser.parse(&carry)?;
    }
    drop(carry);

    let LineParser { max_id, edges, .. } = parser;
    let n = match (num_vertices, max_id) {
        (Some(n), Some(max_id)) if max_id as usize >= n => {
            return Err(parse_err(0, format!("vertex {max_id} >= |V| = {n}")));
        }
        (Some(n), _) => n,
        (None, Some(max_id)) => max_id as usize + 1,
        (None, None) => 0,
    };
    if n >= u32::MAX as usize {
        return Err(parse_err(
            0,
            format!("|V| = {n} leaves no u32 vertex id free as a sentinel"),
        ));
    }
    let b = GraphBuilder::from_checked_edges(n, edges);
    Ok(if symmetrize { b.symmetrize() } else { b }.build())
}

/// Parser state across lines.
#[derive(Default)]
struct LineParser {
    /// Lines seen so far, the current one included.
    lineno: usize,
    /// Largest id of any edge line, self loops included.
    max_id: Option<u64>,
    /// Edges without self loops, which the builder would drop.
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl LineParser {
    /// Parse one line, without its `\n`.
    fn parse(&mut self, line: &[u8]) -> Result<(), IoError> {
        self.lineno += 1;
        let parsed = if line.is_ascii() {
            parse_tokens(line.split(|&b| is_space(b)).filter(|t| !t.is_empty()))
        } else {
            let line = std::str::from_utf8(line).map_err(|_| {
                std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
            })?;
            parse_tokens(line.split_whitespace().map(str::as_bytes))
        };
        let Some((u, v, w)) = parsed.map_err(|msg| parse_err(self.lineno, msg))? else {
            return Ok(());
        };
        if !w.is_finite() {
            return Err(parse_err(self.lineno, "non-finite weight"));
        }
        if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
            return Err(parse_err(self.lineno, "vertex id exceeds u32 range"));
        }
        self.max_id = Some(self.max_id.unwrap_or(0).max(u).max(v));
        if u != v {
            self.edges.push((u as VertexId, v as VertexId, w));
        }
        Ok(())
    }
}

/// An edge line's raw `(u, v, w)`, or `None` for a blank or comment line.
type Parsed = Result<Option<(u64, u64, Weight)>, &'static str>;

/// `char::is_whitespace` restricted to ASCII.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// An edge from a line's whitespace-separated, non-empty tokens.
fn parse_tokens<'a>(mut tokens: impl Iterator<Item = &'a [u8]>) -> Parsed {
    let Some(first) = tokens.next() else {
        return Ok(None);
    };
    if matches!(first[0], b'#' | b'%') {
        return Ok(None);
    }
    let u = parse_id(first).ok_or("bad source vertex")?;
    let v = tokens.next().ok_or("missing target vertex")?;
    let v = parse_id(v).ok_or("bad target vertex")?;
    let w = match tokens.next() {
        Some(t) => parse_weight(t).ok_or("bad weight")?,
        None => 1.0,
    };
    Ok(Some((u, v, w)))
}

/// `u64::from_str` on bytes: an optional `+`, then one or more digits.
fn parse_id(token: &[u8]) -> Option<u64> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        acc.checked_mul(10)?.checked_add(d as u64)
    })
}

/// `f32::from_str` on bytes. Up to nine plain digits fit a `u32`, which
/// `as` rounds to the nearest `f32`, ties to even, as `from_str` does.
fn parse_weight(token: &[u8]) -> Option<Weight> {
    if token.len() <= 9 && token.iter().all(u8::is_ascii_digit) {
        let n = token
            .iter()
            .fold(0u32, |acc, &b| acc * 10 + (b - b'0') as u32);
        return Some(n as Weight);
    }
    std::str::from_utf8(token).ok()?.parse().ok()
}

/// Write the stored directed edges as `u v w` lines.
pub fn write_edge_list<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    writeln!(
        out,
        "# nu-lpa edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            writeln!(out, "{u} {v} {w}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let g = crate::gen::caveman(3, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), Some(g.num_vertices()), false).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let txt = "# header\n\n% more\n0 1\n1 2 2.5\n";
        let g = read_edge_list(Cursor::new(txt), None, false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn symmetrize_on_read() {
        let txt = "0 1\n";
        let g = read_edge_list(Cursor::new(txt), None, true).unwrap();
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn sizes_to_max_id() {
        let txt = "0 9\n";
        let g = read_edge_list(Cursor::new(txt), None, false).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(read_edge_list(Cursor::new("0 x\n"), None, false).is_err());
        assert!(read_edge_list(Cursor::new("0\n"), None, false).is_err());
        assert!(read_edge_list(Cursor::new("0 1 inf\n"), None, false).is_err());
    }

    #[test]
    fn rejects_vertex_beyond_given_n() {
        assert!(read_edge_list(Cursor::new("0 5\n"), Some(3), false).is_err());
    }

    fn parse_error(txt: &[u8]) -> (usize, String) {
        match read_edge_list(Cursor::new(txt), None, false) {
            Err(IoError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    fn edges(txt: &[u8]) -> Vec<(VertexId, VertexId, Weight)> {
        let g = read_edge_list(Cursor::new(txt), None, false).unwrap();
        g.vertices()
            .flat_map(|u| g.neighbors(u).map(move |(v, w)| (u, v, w)))
            .collect()
    }

    #[test]
    fn whitespace_is_char_is_whitespace() {
        // \x0B is whitespace to `char::is_whitespace` only
        assert_eq!(edges(b"0\x0B1\x0C2\t\r\n"), [(0, 1, 2.0)]);
        // U+00A0 and U+3000 take the `str` path and split tokens too
        assert_eq!(edges("0\u{A0}1\u{3000}3\n".as_bytes()), [(0, 1, 3.0)]);
        assert_eq!(
            edges("\u{2028}# comment \u{e9}\n0 1\n".as_bytes()),
            [(0, 1, 1.0)]
        );
    }

    #[test]
    fn ids_take_plus_and_leading_zeros() {
        assert_eq!(edges(b"+0 007 +01.5\n"), [(0, 7, 1.5)]);
        assert_eq!(parse_error(b"++1 2\n"), (1, "bad source vertex".into()));
        assert_eq!(parse_error(b"-1 2\n"), (1, "bad source vertex".into()));
        assert_eq!(parse_error(b"1 +\n"), (1, "bad target vertex".into()));
    }

    #[test]
    fn id_overflow_and_u32_range() {
        let overflow = b"18446744073709551616 1\n";
        assert_eq!(parse_error(overflow), (1, "bad source vertex".into()));
        for txt in [&b"0 18446744073709551615\n"[..], b"4294967295 0\n"] {
            assert_eq!(parse_error(txt), (1, "vertex id exceeds u32 range".into()));
        }
        // the weight is checked before the id range
        assert_eq!(parse_error(b"4294967295 0 x\n"), (1, "bad weight".into()));
        // u32::MAX - 1 fits an id but leaves no sentinel: an error, not a panic
        assert_eq!(parse_error(b"4294967294 0\n").0, 0);
    }

    #[test]
    fn tokens_after_the_weight_are_ignored() {
        assert_eq!(edges(b"0 1 2 junk \xc3\xa9\n"), [(0, 1, 2.0)]);
    }

    #[test]
    fn comment_marks_after_the_first_token_are_tokens() {
        assert_eq!(parse_error(b"0 1 #c\n"), (1, "bad weight".into()));
        assert_eq!(parse_error(b"0 % 1\n"), (1, "bad target vertex".into()));
        assert_eq!(edges(b"  #0 1\n%\n1 2\n"), [(1, 2, 1.0)]);
    }

    #[test]
    fn crlf_and_missing_final_newline() {
        assert_eq!(edges(b"0 1\r\n1 2 3.5"), [(0, 1, 1.0), (1, 2, 3.5)]);
        assert_eq!(edges(b"0 1 2\r"), [(0, 1, 2.0)]);
    }

    #[test]
    fn invalid_utf8_is_an_io_error() {
        match read_edge_list(Cursor::new(b"0 1\n0 2 \xff\n"), None, false) {
            Err(IoError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn error_lines_count_blank_and_comment_lines() {
        assert_eq!(
            parse_error(b"# c\n\n\r\n0 1\n0 x\n"),
            (5, "bad target vertex".into())
        );
        assert_eq!(
            parse_error(b"0 1\n1\n"),
            (2, "missing target vertex".into())
        );
        assert_eq!(parse_error(b"0 1 nan\n"), (1, "non-finite weight".into()));
    }

    #[test]
    fn lines_split_across_chunks_parse_the_same() {
        let txt = b"# head\r\n0 1 0.25\n\n2\x0B3\n4 0 7 x\n5 5\n1 0";
        let whole = read_edge_list(Cursor::new(txt), None, true).unwrap();
        for cap in [1, 2, 3, 5, 8] {
            let r = std::io::BufReader::with_capacity(cap, Cursor::new(txt));
            assert_eq!(
                read_edge_list(r, None, true).unwrap(),
                whole,
                "capacity {cap}"
            );
        }
        assert_eq!(whole.num_vertices(), 6);
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list(Cursor::new(""), None, false).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
