//! Compact binary CSR serialization — fast reload for large stand-ins.
//!
//! Format (little-endian):
//! ```text
//! magic  8 bytes  "NULPACSR"
//! version u32     1
//! |V|    u64
//! |E|    u64
//! offsets (|V|+1) × u64
//! targets |E| × u32
//! weights |E| × f32 bit patterns
//! ```

use super::{parse_err, IoError};
use crate::csr::Csr;
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"NULPACSR";
const VERSION: u32 = 1;
/// The most array entries allocated ahead of the bytes that fill them.
const PREALLOC: u64 = 1 << 20;

/// Serialize a graph to the binary CSR format.
pub fn write_binary<W: Write>(g: &Csr, mut out: W) -> std::io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        out.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in g.targets() {
        out.write_all(&t.to_le_bytes())?;
    }
    for &w in g.weights() {
        out.write_all(&w.to_bits().to_le_bytes())?;
    }
    Ok(())
}

/// Deserialize a graph written by [`write_binary`].
pub fn read_binary<R: Read>(mut input: R) -> Result<Csr, IoError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(parse_err(0, "bad magic — not a NULPACSR file"));
    }
    let version = read_u32(&mut input)?;
    if version != VERSION {
        return Err(parse_err(0, format!("unsupported version {version}")));
    }
    let n = read_u64(&mut input)?;
    let m = read_u64(&mut input)?;

    // The header's counts are untrusted: pre-allocate at most PREALLOC
    // entries and let the arrays grow only as their bytes arrive.
    let prealloc = |count: u64| count.min(PREALLOC) as usize;
    let mut offsets = Vec::with_capacity(prealloc(n.saturating_add(1)));
    for _ in 0..=n {
        offsets.push(read_u64(&mut input)? as usize);
    }
    let mut targets = Vec::with_capacity(prealloc(m));
    for _ in 0..m {
        targets.push(read_u32(&mut input)?);
    }
    let mut weights = Vec::with_capacity(prealloc(m));
    for _ in 0..m {
        let bits = read_u32(&mut input)?;
        let w = f32::from_bits(bits);
        if !w.is_finite() {
            return Err(parse_err(0, "non-finite weight in binary file"));
        }
        weights.push(w);
    }
    // validate structural invariants before constructing
    if offsets.first() != Some(&0) || offsets.last() != Some(&(m as usize)) {
        return Err(parse_err(0, "corrupt offsets"));
    }
    Csr::try_from_raw(offsets, targets, weights)
        .map_err(|e| parse_err(0, format!("corrupt CSR arrays: {e}")))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{caveman_weighted, erdos_renyi};
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        for g in [caveman_weighted(3, 5, 0.5), erdos_renyi(80, 200, 7)] {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            let g2 = read_binary(Cursor::new(buf)).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = crate::Csr::empty(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(read_binary(Cursor::new(b"NOTACSR!rest".to_vec())).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let g = caveman_weighted(2, 4, 1.0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_corrupt_offsets() {
        let g = caveman_weighted(2, 4, 1.0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // corrupt the first offset (offset table starts at byte 8+4+8+8=28)
        buf[28] = 0xff;
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf
    }

    #[test]
    fn huge_declared_counts_are_an_error_not_an_abort() {
        for (n, m) in [(1 << 58, 0), (0, 1 << 58), (u64::MAX, u64::MAX)] {
            let buf = header(n, m);
            assert_eq!(buf.len(), 28);
            assert!(
                read_binary(Cursor::new(buf)).is_err(),
                "|V| = {n}, |E| = {m}"
            );
        }
    }

    #[test]
    fn offsets_past_the_targets_are_an_error_not_a_panic() {
        // offsets [0, 10, 1] pass the first/last check but would slice
        // the one-entry targets array out of bounds
        let mut buf = header(2, 1);
        for o in [0u64, 10, 1] {
            buf.extend_from_slice(&o.to_le_bytes());
        }
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds targets.len()"), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let g = crate::Csr::empty(1);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[8] = 9; // version field
        assert!(read_binary(Cursor::new(buf)).is_err());
    }
}
