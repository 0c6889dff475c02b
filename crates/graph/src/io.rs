//! Graph I/O: plain-text edge lists and one binary image of a finished
//! CSR.
//!
//! Text format: one `src dst` pair per line, whitespace separated;
//! `#`-prefixed lines are comments (SNAP convention, which the paper's
//! real-world datasets ship in). The binary image ([`write_binary`]) is
//! also the body of the on-disk SNAP cache ([`load_snap_cached`]).

use crate::{Graph, GraphBuilder, GraphError, Result, Vid};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Reads an edge list. The vertex count is `max id + 1` unless
/// `num_vertices` is given (required to represent trailing isolated
/// vertices).
///
/// # Errors
///
/// Returns [`GraphError::ParseEdge`] on malformed lines,
/// [`GraphError::VertexOutOfBounds`] if an id exceeds a given
/// `num_vertices`, and [`GraphError::Io`] on read failure.
pub fn read_edge_list<R: Read>(reader: R, num_vertices: Option<usize>) -> Result<Graph> {
    let (edges, max_id, seen_any) = parse_edge_lines(reader)?;
    let n = match num_vertices {
        Some(n) => n,
        None if seen_any => max_id as usize + 1,
        None => 0,
    };
    let mut b = GraphBuilder::new(n);
    for (s, d) in edges {
        b.try_add_edge(Vid::new(s), Vid::new(d))?;
    }
    Ok(b.build())
}

/// Raw parse result: the edge pairs, the largest id seen, and whether
/// any edge was seen at all.
type ParsedEdges = (Vec<(u32, u32)>, u32, bool);

/// Parses `src dst` lines (SNAP conventions: `#` comments, blank lines,
/// arbitrary whitespace).
fn parse_edge_lines<R: Read>(reader: R) -> Result<ParsedEdges> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut seen_any = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u32> { tok?.parse().ok() };
        let (s, d) = match (parse(parts.next()), parse(parts.next())) {
            (Some(s), Some(d)) => (s, d),
            _ => {
                return Err(GraphError::ParseEdge {
                    line: lineno + 1,
                    content: trimmed.to_string(),
                })
            }
        };
        max_id = max_id.max(s).max(d);
        seen_any = true;
        edges.push((s, d));
    }
    Ok((edges, max_id, seen_any))
}

/// Cleanup options applied to a SNAP edge list at load time.
///
/// The default mirrors the paper's §7.1 preprocessing (and
/// [`crate::RmatConfig`]'s `cleaned(true)`): symmetrize, deduplicate,
/// drop self-loops. The options participate in the CSR cache key, so a
/// cache written under one cleanup never satisfies a load under another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapOptions {
    /// Vertex count override (`max id + 1` when `None`).
    pub num_vertices: Option<usize>,
    /// Add the reverse of every edge (directed↔undirected conversion).
    pub symmetrize: bool,
    /// Remove duplicate edges after symmetrization.
    pub dedup: bool,
    /// Remove self-loops.
    pub drop_self_loops: bool,
}

impl Default for SnapOptions {
    fn default() -> Self {
        SnapOptions {
            num_vertices: None,
            symmetrize: true,
            dedup: true,
            drop_self_loops: true,
        }
    }
}

impl SnapOptions {
    /// Raw-graph options: keep the edge list exactly as written.
    pub fn raw() -> Self {
        SnapOptions {
            num_vertices: None,
            symmetrize: false,
            dedup: false,
            drop_self_loops: false,
        }
    }

    fn flags(&self) -> u8 {
        u8::from(self.symmetrize) | u8::from(self.dedup) << 1 | u8::from(self.drop_self_loops) << 2
    }
}

/// Reads a SNAP-format edge list (`#` comments, blank lines, whitespace
/// separated pairs) and applies the [`SnapOptions`] cleanup.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdge`] on malformed lines,
/// [`GraphError::VertexOutOfBounds`] if an id exceeds a given
/// `num_vertices`, and [`GraphError::Io`] on read failure.
pub fn read_snap<R: Read>(reader: R, opts: SnapOptions) -> Result<Graph> {
    let (edges, max_id, seen_any) = parse_edge_lines(reader)?;
    let n = match opts.num_vertices {
        Some(n) => n,
        None if seen_any => max_id as usize + 1,
        None => 0,
    };
    let mut b = GraphBuilder::new(n);
    b.symmetrize(opts.symmetrize)
        .dedup(opts.dedup)
        .drop_self_loops(opts.drop_self_loops);
    for (s, d) in edges {
        b.try_add_edge(Vid::new(s), Vid::new(d))?;
    }
    Ok(b.build())
}

/// The sibling path where [`load_snap_cached`] keeps the CSR cache of a
/// SNAP file (`foo.txt` → `foo.txt.csr`).
pub fn snap_cache_path<P: AsRef<Path>>(path: P) -> PathBuf {
    let p = path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".csr");
    p.with_file_name(name)
}

/// Loads a SNAP edge list through an on-disk CSR cache.
///
/// The first load parses the text and writes the finished CSR next to it
/// (`<file>.csr`); later loads deserialize the CSR directly. The cache
/// is keyed by an FNV-1a fingerprint of the source bytes plus the
/// [`SnapOptions`], so editing the text or changing the cleanup options
/// transparently re-parses (and rewrites the cache). A cache that fails
/// to *write* is ignored — it is an optimization, not a requirement —
/// but a cache that exists and is unreadable for I/O reasons still
/// surfaces as an error through the fresh parse path.
///
/// The deserialized graph is bit-identical to a fresh parse: the cache
/// stores the final CSR (offsets + sorted targets) after cleanup, and
/// rebuilding from it is deterministic.
///
/// # Errors
///
/// As [`read_snap`].
pub fn load_snap_cached<P: AsRef<Path>>(path: P, opts: SnapOptions) -> Result<Graph> {
    let path = path.as_ref();
    let source = std::fs::read(path)?;
    let fingerprint = fnv1a64(&source);
    let cache = snap_cache_path(path);
    if let Ok(file) = std::fs::File::open(&cache) {
        if let Ok(graph) = read_csr_cache(BufReader::new(file), fingerprint, opts) {
            return Ok(graph);
        }
    }
    let graph = read_snap(&source[..], opts)?;
    // Best-effort cache write: a read-only directory must not fail the load.
    let _ = std::fs::File::create(&cache)
        .map_err(GraphError::Io)
        .and_then(|f| write_csr_cache(&graph, fingerprint, opts, std::io::BufWriter::new(f)));
    Ok(graph)
}

/// FNV-1a 64-bit hash (the CSR cache's source fingerprint).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Magic header of the CSR cache format: the cache key, then a
/// [`write_binary`] image.
const CACHE_MAGIC: &[u8; 8] = b"SYMPLCS2";

/// Serializes `graph` with the source fingerprint and load options it was
/// built under: the key (`SYMPLCS2`, flags, vertex-count override,
/// fingerprint, little-endian) followed by the [`write_binary`] image.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_csr_cache<W: Write>(
    graph: &Graph,
    fingerprint: u64,
    opts: SnapOptions,
    mut writer: W,
) -> Result<()> {
    writer.write_all(CACHE_MAGIC)?;
    writer.write_all(&[opts.flags()])?;
    let nv_opt = opts.num_vertices.map_or(u64::MAX, |n| n as u64);
    writer.write_all(&nv_opt.to_le_bytes())?;
    writer.write_all(&fingerprint.to_le_bytes())?;
    write_binary(graph, writer)
}

/// Deserializes a CSR cache written by [`write_csr_cache`], verifying the
/// magic, the source `fingerprint`, and the load `opts` (a mismatch means
/// the cache is stale and reports as [`GraphError::ParseEdge`] line 0 so
/// callers fall back to a fresh parse), then reads the image as
/// [`read_binary`] does.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdge`] on a corrupt or stale cache and
/// [`GraphError::Io`] on read failure.
pub fn read_csr_cache<R: Read>(
    mut reader: R,
    fingerprint: u64,
    opts: SnapOptions,
) -> Result<Graph> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| bad("missing magic"))?;
    if &magic != CACHE_MAGIC {
        return Err(bad("bad magic header"));
    }
    let mut byte = [0u8; 1];
    reader
        .read_exact(&mut byte)
        .map_err(|_| bad("missing flags"))?;
    if byte[0] != opts.flags() {
        return Err(bad("stale cache: cleanup options differ"));
    }
    let nv_opt = read_u64(&mut reader, "missing vertex-count override")?;
    if nv_opt != opts.num_vertices.map_or(u64::MAX, |n| n as u64) {
        return Err(bad("stale cache: vertex-count override differs"));
    }
    if read_u64(&mut reader, "missing fingerprint")? != fingerprint {
        return Err(bad("stale cache: source fingerprint differs"));
    }
    read_binary(reader)
}

/// A corrupt or stale binary image: [`GraphError::ParseEdge`] line 0.
fn bad(what: &str) -> GraphError {
    GraphError::ParseEdge {
        line: 0,
        content: what.to_string(),
    }
}

/// Reads one little-endian `u64` header field.
fn read_u64<R: Read>(reader: &mut R, what: &str) -> Result<u64> {
    let mut word = [0u8; 8];
    reader.read_exact(&mut word).map_err(|_| bad(what))?;
    Ok(u64::from_le_bytes(word))
}

/// Writes the graph as a `src dst` edge list with a size-comment header.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# vertices {} edges {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, d) in graph.edges() {
        writeln!(writer, "{} {}", s.raw(), d.raw())?;
    }
    Ok(())
}

/// Magic header of the binary graph format.
const BINARY_MAGIC: &[u8; 8] = b"SYMPLEG2";

/// Writes the graph's finished CSR in a compact little-endian binary
/// format: `SYMPLEG2`, vertex count `n` and edge count `m` as `u64`, the
/// `n + 1` out-offsets as `u64`, then the `m` sorted out-targets as `u32`
/// — 4 bytes per edge, for caching generated and parsed datasets.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_binary<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    writer.write_all(BINARY_MAGIC)?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut put = |writer: &mut W, bytes: &[u8]| -> Result<()> {
        buf.extend_from_slice(bytes);
        if buf.len() >= 64 * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
        Ok(())
    };
    let mut offset = 0u64;
    for v in graph.vertices() {
        put(&mut writer, &offset.to_le_bytes())?;
        offset += graph.out_degree(v) as u64;
    }
    put(&mut writer, &offset.to_le_bytes())?;
    for (_, d) in graph.edges() {
        put(&mut writer, &d.raw().to_le_bytes())?;
    }
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// Nothing is sized from the header: the reader takes what the input
/// holds and checks its length against the declared counts (with checked
/// arithmetic) before trusting either, so a corrupt count is an error,
/// never an overflow or a huge allocation.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdge`] (line 0) on a bad magic header, a
/// body whose length does not match the declared counts, or offsets and
/// targets that do not describe a CSR of that size; [`GraphError::Io`] on
/// read failure.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Graph> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| bad("missing magic"))?;
    if &magic != BINARY_MAGIC {
        return Err(bad("bad magic header"));
    }
    let n = read_u64(&mut reader, "missing vertex count")?;
    let m = read_u64(&mut reader, "missing edge count")?;
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    let offsets_len = n.checked_add(1).and_then(|k| k.checked_mul(8));
    let expected = offsets_len.and_then(|o| m.checked_mul(4).and_then(|t| o.checked_add(t)));
    if expected != Some(body.len() as u64) {
        return Err(bad("body length does not match the declared counts"));
    }
    if n > u64::from(u32::MAX) + 1 {
        return Err(bad("vertex count exceeds the 32-bit id space"));
    }
    // Both fit: the body that holds them is in memory.
    let (n, m) = (n as usize, m as usize);
    let (offsets, targets) = body.split_at(8 * (n + 1));
    let offsets: Vec<u64> = offsets
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    if offsets[0] != 0 || offsets[n] != m as u64 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("inconsistent offsets"));
    }
    let mut edges = Vec::with_capacity(m);
    for (src, w) in offsets.windows(2).enumerate() {
        // In bounds: the offsets ascend to `m`, and `targets` holds `4m`
        // bytes.
        let (lo, hi) = (4 * w[0] as usize, 4 * w[1] as usize);
        for t in targets[lo..hi].chunks_exact(4) {
            let d = u32::from_le_bytes(t.try_into().expect("4 bytes"));
            if d as usize >= n {
                return Err(bad("edge endpoint out of bounds"));
            }
            edges.push((Vid::new(src as u32), Vid::new(d)));
        }
    }
    Ok(Graph::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = crate::cycle(5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Some(5)).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        let mut e1: Vec<_> = g.edges().collect();
        let mut e2: Vec<_> = g2.edges().collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n0 1\n  # another\n1 2\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        match err {
            GraphError::ParseEdge { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn explicit_vertex_count_allows_isolated_tail() {
        let g = read_edge_list("0 1\n".as_bytes(), Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn out_of_bounds_rejected_with_explicit_count() {
        let err = read_edge_list("0 9\n".as_bytes(), Some(5)).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { vid: 9, .. }));
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = crate::RmatConfig::graph500(7, 4).generate();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(
            buf.len(),
            8 + 16 + (g.num_vertices() + 1) * 8 + g.num_edges() * 4
        );
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn binary_roundtrip_with_isolated_tail() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(Vid::new(0), Vid::new(1));
        let g = b.build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 10, "isolated vertices preserved");
        assert_eq!(g2.num_edges(), 1);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC________"[..]).unwrap_err();
        assert!(matches!(err, GraphError::ParseEdge { .. }));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = crate::path(5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, GraphError::ParseEdge { .. }));
    }

    #[test]
    fn binary_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
    }

    // ---- SNAP loader + CSR cache ----

    use proptest::prelude::*;

    /// Structural equality: same vertex count and identical adjacency in
    /// both directions (the engines read both CSRs).
    fn assert_graphs_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out({v})");
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in({v})");
        }
    }

    #[test]
    fn snap_skips_comments_and_blanks() {
        let text = "# SNAP header\n# Nodes: 3 Edges: 2\n\n0 1\n\n  # inline\n1 2\n";
        let g = read_snap(text.as_bytes(), SnapOptions::raw()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn snap_default_cleanup_dedups_drops_loops_and_symmetrizes() {
        // duplicate 0->1, self-loop 2->2; cleaned: {0<->1, 1<->2}
        let text = "0 1\n0 1\n1 2\n2 2\n";
        let g = read_snap(text.as_bytes(), SnapOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(Vid::new(1)), &[Vid::new(0), Vid::new(2)]);
    }

    #[test]
    fn snap_raw_keeps_duplicates_and_loops() {
        let text = "0 1\n0 1\n2 2\n";
        let g = read_snap(text.as_bytes(), SnapOptions::raw()).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn snap_malformed_line_is_a_typed_error() {
        let text = "0 1\n7 banana\n";
        match read_snap(text.as_bytes(), SnapOptions::default()).unwrap_err() {
            GraphError::ParseEdge { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "7 banana");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn snap_out_of_bounds_is_a_typed_error() {
        let opts = SnapOptions {
            num_vertices: Some(4),
            ..SnapOptions::default()
        };
        let err = read_snap("0 9\n".as_bytes(), opts).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { vid: 9, .. }));
    }

    #[test]
    fn csr_cache_roundtrip_is_bit_identical() {
        let text = "# karate-ish\n0 1\n0 2\n1 2\n3 0\n2 2\n0 1\n";
        let opts = SnapOptions::default();
        let g = read_snap(text.as_bytes(), opts).unwrap();
        let fp = fnv1a64(text.as_bytes());
        let mut buf = Vec::new();
        write_csr_cache(&g, fp, opts, &mut buf).unwrap();
        let g2 = read_csr_cache(&buf[..], fp, opts).unwrap();
        assert_graphs_identical(&g, &g2);
    }

    #[test]
    fn csr_cache_rejects_stale_fingerprint_and_options() {
        let text = "0 1\n1 2\n";
        let opts = SnapOptions::default();
        let g = read_snap(text.as_bytes(), opts).unwrap();
        let fp = fnv1a64(text.as_bytes());
        let mut buf = Vec::new();
        write_csr_cache(&g, fp, opts, &mut buf).unwrap();
        assert!(read_csr_cache(&buf[..], fp ^ 1, opts).is_err());
        assert!(read_csr_cache(&buf[..], fp, SnapOptions::raw()).is_err());
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 2);
        assert!(read_csr_cache(&truncated[..], fp, opts).is_err());
    }

    /// A fresh directory under the system temp dir for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("symple-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corrupt_cache_vertex_count_falls_back_to_a_fresh_parse() {
        let dir = scratch_dir("snap-corrupt");
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n1 2\n2 3\n").unwrap();
        let opts = SnapOptions::default();
        let fresh = read_snap(std::fs::File::open(&path).unwrap(), opts).unwrap();
        load_snap_cached(&path, opts).unwrap();
        let cache = snap_cache_path(&path);
        let valid = std::fs::read(&cache).unwrap();
        // Cache key (magic, flags, override, fingerprint), then the
        // image's magic: the image's vertex count follows.
        let field = 8 + 1 + 8 + 8 + 8;
        let mut corrupt = valid.clone();
        corrupt[field..field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&cache, &corrupt).unwrap();
        let loaded = load_snap_cached(&path, opts).unwrap();
        assert_graphs_identical(&fresh, &loaded);
        assert_eq!(std::fs::read(&cache).unwrap(), valid, "cache rewritten");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_strict_prefix_of_an_image_is_an_error() {
        let g = crate::RmatConfig::graph500(5, 4).generate();
        let opts = SnapOptions::default();
        let mut image = Vec::new();
        write_binary(&g, &mut image).unwrap();
        let mut cache = Vec::new();
        write_csr_cache(&g, 7, opts, &mut cache).unwrap();
        for len in 0..image.len() {
            assert!(read_binary(&image[..len]).is_err(), "image prefix {len}");
        }
        for len in 0..cache.len() {
            assert!(
                read_csr_cache(&cache[..len], 7, opts).is_err(),
                "cache prefix {len}"
            );
        }
        let mut trailing = image.clone();
        trailing.push(0);
        assert!(read_binary(&trailing[..]).is_err(), "trailing byte");
    }

    #[test]
    fn load_snap_cached_writes_then_reuses_the_cache() {
        let dir = scratch_dir("snap");
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "# c\n0 1\n1 2\n2 0\n").unwrap();
        let opts = SnapOptions::default();
        let fresh = read_snap(std::fs::File::open(&path).unwrap(), opts).unwrap();
        let first = load_snap_cached(&path, opts).unwrap();
        assert!(snap_cache_path(&path).exists(), "cache file written");
        let second = load_snap_cached(&path, opts).unwrap();
        assert_graphs_identical(&fresh, &first);
        assert_graphs_identical(&fresh, &second);
        // editing the source invalidates the cache
        std::fs::write(&path, "0 1\n").unwrap();
        let edited = load_snap_cached(&path, opts).unwrap();
        assert_eq!(edited.num_edges(), 2); // symmetrized single edge
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Renders random (possibly messy) edge lists with comments and blank
    /// lines interleaved.
    fn arb_snap_text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u32..50, 0u32..50), 0..120).prop_map(|edges| {
            let mut s = String::from("# generated\n");
            for (i, (a, b)) in edges.iter().enumerate() {
                if i % 7 == 3 {
                    s.push('\n');
                }
                if i % 11 == 5 {
                    s.push_str("# comment\n");
                }
                s.push_str(&format!("{a} {b}\n"));
            }
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn cache_roundtripped_csr_matches_fresh_parse(
            text in arb_snap_text(),
            symmetrize in any::<bool>(),
            dedup in any::<bool>(),
            drop_self_loops in any::<bool>(),
        ) {
            let opts = SnapOptions { num_vertices: Some(50), symmetrize, dedup, drop_self_loops };
            let fresh = read_snap(text.as_bytes(), opts).unwrap();
            let fp = fnv1a64(text.as_bytes());
            let mut buf = Vec::new();
            write_csr_cache(&fresh, fp, opts, &mut buf).unwrap();
            let cached = read_csr_cache(&buf[..], fp, opts).unwrap();
            assert_graphs_identical(&fresh, &cached);
        }

        #[test]
        fn binary_image_and_cache_round_trip_random_graphs(
            n in 0usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..150),
            fingerprint in any::<u64>(),
        ) {
            let mut b = GraphBuilder::new(n);
            for (s, d) in edges {
                if (s as usize) < n && (d as usize) < n {
                    b.add_edge(Vid::new(s), Vid::new(d));
                }
            }
            let g = b.build();
            let mut image = Vec::new();
            write_binary(&g, &mut image).unwrap();
            assert_graphs_identical(&g, &read_binary(&image[..]).unwrap());
            let opts = SnapOptions::raw();
            let mut cache = Vec::new();
            write_csr_cache(&g, fingerprint, opts, &mut cache).unwrap();
            assert_eq!(&cache[8 + 1 + 8 + 8..], &image[..], "the cache body is the image");
            assert_graphs_identical(&g, &read_csr_cache(&cache[..], fingerprint, opts).unwrap());
        }
    }
}
