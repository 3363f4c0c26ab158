//! MatrixMarket coordinate format, the SuiteSparse interchange format used
//! by the paper's dataset loaders. Supports `matrix coordinate
//! {real,integer,pattern} {general,symmetric}` with 1-based indices.

use super::{parse_err, IoError};
use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use std::io::{BufRead, Write};

/// The most header-declared entries pre-allocated ahead of the lines that
/// fill them.
const PREALLOC: usize = 1 << 20;

/// Read a MatrixMarket file into a symmetrized graph. `general` matrices
/// get reverse edges added (the paper's preprocessing for directed webs);
/// `symmetric` matrices store each off-diagonal entry once and we expand
/// it to both directions. Diagonal entries (self loops) are dropped.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, IoError> {
    let mut lines = reader.lines().enumerate();

    // Header
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty file"))?;
    let header = header?;
    if !header.starts_with("%%MatrixMarket") {
        return Err(parse_err(1, "missing %%MatrixMarket header"));
    }
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
        return Err(parse_err(1, "only `matrix coordinate` supported"));
    }
    let field = toks[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(1, format!("unsupported field type `{field}`")));
    }
    let symmetry = toks[4].as_str();
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(parse_err(1, format!("unsupported symmetry `{symmetry}`")));
    }
    let pattern = field == "pattern";

    // Size line (after comments)
    let mut size_line = None;
    for (i, l) in lines.by_ref() {
        let l = l?;
        let t = l.trim().to_string();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((i + 1, t));
        break;
    }
    let (szno, sz) = size_line.ok_or_else(|| parse_err(0, "missing size line"))?;
    let mut it = sz.split_whitespace();
    let rows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(szno, "bad row count"))?;
    let cols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(szno, "bad column count"))?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(szno, "bad nnz count"))?;
    if rows != cols {
        return Err(parse_err(szno, "adjacency matrix must be square"));
    }
    if rows >= u32::MAX as usize {
        return Err(parse_err(
            szno,
            format!("{rows} rows do not fit in 32-bit vertex ids"),
        ));
    }

    // KeepFirst: a `general` file that already stores both (u,v) and (v,u)
    // must not see its weights doubled by our unconditional symmetrization.
    // The declared nnz is untrusted: a lying count ends in the entry-count
    // error below, not in a huge up-front allocation.
    let mut b = GraphBuilder::new(rows)
        .duplicate_policy(crate::builder::DuplicatePolicy::KeepFirst)
        .reserve(nnz.min(PREALLOC) * 2);
    let mut seen = 0usize;
    for (i, l) in lines {
        let l = l?;
        let lineno = i + 1;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad row index"))?;
        let v: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad column index"))?;
        let w: f32 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(lineno, "missing value"))?
        };
        if u == 0 || v == 0 || u > rows || v > cols {
            return Err(parse_err(lineno, "index out of range (1-based)"));
        }
        if !w.is_finite() {
            return Err(parse_err(lineno, "non-finite value"));
        }
        seen += 1;
        let (u, v) = ((u - 1) as VertexId, (v - 1) as VertexId);
        if u == v {
            continue; // drop diagonal
        }
        // both symmetric storage and the paper's symmetrization want both
        // directions present
        b.push_undirected(u, v, w);
    }
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    Ok(b.build())
}

/// Write as `matrix coordinate real symmetric`, storing each undirected
/// edge once (lower triangle).
pub fn write_matrix_market<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    let mut entries = Vec::new();
    for u in g.vertices() {
        for (v, w) in g.neighbors(u) {
            if v <= u {
                entries.push((u, v, w));
            }
        }
    }
    writeln!(out, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(
        out,
        "{} {} {}",
        g.num_vertices(),
        g.num_vertices(),
        entries.len()
    )?;
    for (u, v, w) in entries {
        writeln!(out, "{} {} {}", u + 1, v + 1, w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_symmetric_pattern() {
        let txt =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 2\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
    }

    #[test]
    fn parse_general_real() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_weight(1, 0), Some(3.5)); // symmetrized
    }

    #[test]
    fn diagonal_dropped() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 1.0\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.num_self_loops(), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn roundtrip() {
        let g = crate::gen::caveman(2, 5);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let g2 = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn general_with_both_directions_not_doubled() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 3.0\n2 1 3.0\n";
        let g = read_matrix_market(Cursor::new(txt)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
    }

    #[test]
    fn rejects_non_square() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 3 0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_wrong_nnz() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_rows_beyond_vertex_id_range() {
        for rows in [u32::MAX as u64, u64::MAX] {
            let txt = format!("%%MatrixMarket matrix coordinate real general\n{rows} {rows} 0\n");
            let err = read_matrix_market(Cursor::new(txt)).unwrap_err();
            assert!(err.to_string().contains("32-bit vertex ids"), "{err}");
        }
    }

    #[test]
    fn lying_nnz_is_an_entry_count_error() {
        let txt = format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 {}\n1 2 1.0\n",
            usize::MAX
        );
        let err = read_matrix_market(Cursor::new(txt)).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("expected {} entries, found 1", usize::MAX)),
            "{err}"
        );
    }

    #[test]
    fn rejects_zero_index() {
        let txt = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(txt)).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market(Cursor::new("not a header\n")).is_err());
        let arr = "%%MatrixMarket matrix array real general\n2 2\n";
        assert!(read_matrix_market(Cursor::new(arr)).is_err());
    }
}
