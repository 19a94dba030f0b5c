//! Frozen on-disk CSR snapshots: build a graph once, share it across
//! runs and processes.
//!
//! A snapshot is a packed little-endian image of the graph's CSR tables —
//! exactly the layout a compacted [`Graph`] holds in memory — so loading
//! is validation plus straight `memcpy`s out of a read-only mapping (the
//! vendored `memmap2` shim; a buffered byte-slice fallback keeps tests
//! running where mmap is unavailable, see `LCL_NO_MMAP`). No generator,
//! no RNG, no port-table reconstruction.
//!
//! # File layout (all fields little-endian `u32` unless noted)
//!
//! ```text
//! header   magic "LCLG" | version | n | m | max_degree | reserved
//!          | content hash (u64, FNV-1a over the whole payload)
//! offsets  n+1 port offsets (prefix sums of degrees; offsets[n] = 2m)
//! slab     2m packed half-edges, node-major in port order
//! edges    2m endpoint node ids ([u, v] per edge)
//! peers    half_port, peer_node, peer_port — 2m entries each
//! ```
//!
//! The payload is the graph's *logical* packed form: slack segments the
//! incremental builder leaves in the slab never reach the file, so
//! freezing the same structure always produces the same bytes and
//! [`Graph::content_hash`] is layout-independent. The FNV-1a hash in the
//! header is the integrity gate: [`Graph::load_frozen`] refuses a payload
//! whose hash disagrees (a fresh build is always the safe fallback), and
//! run manifests record the same hash so `results verify` can pin the
//! exact instance a measurement ran on.

use crate::graph::Graph;
use crate::ids::{HalfEdge, NodeId};
use memmap2::Mmap;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"LCLG";
pub(crate) const VERSION: u32 = 1;
/// magic + version + n + m + max_degree + reserved + hash.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 4 + 4 + 8;

/// The fixed-size header of a frozen snapshot, read without touching the
/// payload tables — what `snapshot info` prints for multi-gigabyte images
/// in constant time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (currently 1).
    pub version: u32,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// FNV-1a 64 content hash of the payload, as stored in the header.
    /// **Not** re-verified against the payload here; use
    /// [`Graph::load_frozen`] for full validation.
    pub hash: u64,
}

/// Reads and validates only the 32-byte header of a frozen snapshot,
/// including that the file is exactly as long as the header's `n` and `m`
/// require.
///
/// # Errors
///
/// I/O errors opening the file, and `InvalidData` on a short file, wrong
/// magic, unsupported version, or a file length that disagrees with the
/// header.
pub fn snapshot_header(path: &Path) -> io::Result<SnapshotHeader> {
    use std::io::Read;
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = Vec::with_capacity(HEADER_LEN);
    file.take(HEADER_LEN as u64).read_to_end(&mut header)?;
    parse_header(&header, file_len)
}

/// Parses and validates a snapshot header from the leading bytes of an
/// image whose total length is `file_len`. The one place the layout's size
/// formula lives: a valid image is `HEADER_LEN + 4·((n + 1) + 10m)` bytes.
fn parse_header(bytes: &[u8], file_len: u64) -> io::Result<SnapshotHeader> {
    if bytes.len() < HEADER_LEN {
        return Err(invalid(format!("snapshot too short: {} bytes", bytes.len())));
    }
    if &bytes[0..4] != MAGIC {
        return Err(invalid("bad snapshot magic".to_string()));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    let version = word(4);
    if version != VERSION {
        return Err(invalid(format!("unsupported snapshot version {version}")));
    }
    let (n, m) = (u64::from(word(8)), u64::from(word(12)));
    let expect_len = HEADER_LEN as u64 + 4 * ((n + 1) + 10 * m);
    if file_len != expect_len {
        return Err(invalid(format!(
            "snapshot is {file_len} bytes, expected {expect_len} for n={n} m={m}"
        )));
    }
    Ok(SnapshotHeader {
        version,
        n: n as usize,
        m: m as usize,
        max_degree: word(16) as usize,
        hash: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
    })
}

/// Incremental FNV-1a 64 — the same hash the scenario subsystem uses for
/// spec fingerprints, here over raw payload bytes.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Streams every payload `u32` of `g`'s packed image, in file order, into
/// `emit`. Shared by the hash (no I/O) and the writer (hash + file) paths.
fn payload_words(g: &Graph, mut emit: impl FnMut(u32)) {
    let two_m = 2 * g.edge_count() as u32;
    let mut off = 0u32;
    for v in g.nodes() {
        emit(off);
        off += g.degree(v) as u32;
    }
    emit(two_m);
    for v in g.nodes() {
        for h in g.ports(v) {
            emit(h.index() as u32);
        }
    }
    for e in g.edges() {
        let [a, b] = g.endpoints(e);
        emit(a.0);
        emit(b.0);
    }
    for h in g.half_edges() {
        emit(g.port_of(h) as u32);
    }
    for h in g.half_edges() {
        emit(g.half_edge_peer(h).0);
    }
    for h in g.half_edges() {
        emit(g.peer_port(h) as u32);
    }
}

impl Graph {
    /// FNV-1a 64 hash of this graph's packed snapshot payload — the value
    /// [`Graph::freeze`] stores in the header. Independent of slab slack
    /// and segment placement: structurally equal graphs hash equal.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut fnv = Fnv::new();
        payload_words(self, |w| fnv.write(&w.to_le_bytes()));
        fnv.finish()
    }

    /// Writes this graph's frozen snapshot to `path`, returning the
    /// content hash recorded in the header. The write is not atomic;
    /// cache layers that share snapshots across processes should write to
    /// a temporary name and rename (see `lcl_scenario`'s snapshot cache).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn freeze(&self, path: &Path) -> io::Result<u64> {
        let mut file = File::create(path)?;
        // Header placeholder first; the hash is only known after the
        // payload has streamed past the FNV, so patch it in afterwards.
        file.write_all(&[0u8; HEADER_LEN])?;
        let mut out = BufWriter::new(file);
        let mut fnv = Fnv::new();
        let mut io_err = None;
        payload_words(self, |w| {
            let bytes = w.to_le_bytes();
            fnv.write(&bytes);
            if io_err.is_none() {
                if let Err(e) = out.write_all(&bytes) {
                    io_err = Some(e);
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        let hash = fnv.finish();
        let mut file = out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(self.node_count() as u32).to_le_bytes());
        header.extend_from_slice(&(self.edge_count() as u32).to_le_bytes());
        header.extend_from_slice(&(self.max_degree() as u32).to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&hash.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(hash)
    }

    /// Loads a frozen snapshot written by [`Graph::freeze`]. The loaded
    /// graph is packed (`port_slab_len() == 2·edge_count()`), compares
    /// structurally equal to the frozen graph, and re-freezes to
    /// byte-identical output.
    ///
    /// # Errors
    ///
    /// I/O errors opening or mapping the file, and `InvalidData` when the
    /// image is malformed: wrong magic or version, truncated payload,
    /// content hash mismatch, non-monotone offsets, or out-of-range ids.
    pub fn load_frozen(path: &Path) -> io::Result<Graph> {
        let map = Mmap::map_path(path)?;
        let bytes: &[u8] = &map;
        let SnapshotHeader { n, m, max_degree: max_deg, hash: stored_hash, .. } =
            parse_header(bytes, bytes.len() as u64)?;
        let payload = &bytes[HEADER_LEN..];
        let mut fnv = Fnv::new();
        fnv.write(payload);
        let hash = fnv.finish();
        if hash != stored_hash {
            return Err(invalid(format!(
                "content hash mismatch: header says {stored_hash:#018x}, payload hashes to {hash:#018x}"
            )));
        }
        let mut words =
            payload.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
        let mut next = || words.next().expect("length checked above");
        let two_m = 2 * m as u32;
        let offsets: Vec<u32> = (0..=n).map(|_| next()).collect();
        if offsets[n] != two_m {
            return Err(invalid(format!("final offset {} != 2m = {two_m}", offsets[n])));
        }
        let mut degrees = Vec::with_capacity(n);
        for i in 0..n {
            let (a, b) = (offsets[i], offsets[i + 1]);
            if a > b {
                return Err(invalid(format!("offsets not monotone at node {i}")));
            }
            degrees.push(b - a);
        }
        let mut slab = Vec::with_capacity(two_m as usize);
        for _ in 0..two_m {
            let raw = next();
            if raw >= two_m {
                return Err(invalid(format!("slab half-edge {raw} out of range")));
            }
            slab.push(HalfEdge::from_index(raw as usize));
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (a, b) = (next(), next());
            if a as usize >= n || b as usize >= n {
                return Err(invalid(format!("edge endpoint [{a}, {b}] out of range")));
            }
            edges.push([NodeId(a), NodeId(b)]);
        }
        let half_port: Vec<u32> = (0..two_m).map(|_| next()).collect();
        let peer_node: Vec<u32> = (0..two_m).map(|_| next()).collect();
        let peer_port: Vec<u32> = (0..two_m).map(|_| next()).collect();
        if let Some(&p) = peer_node.iter().find(|&&p| p as usize >= n) {
            return Err(invalid(format!("peer node {p} out of range")));
        }
        let mut port_offsets = offsets;
        port_offsets.pop();
        let g = Graph::from_packed_tables(
            slab,
            port_offsets,
            degrees,
            edges,
            half_port,
            peer_node.into_iter().map(NodeId).collect(),
            peer_port,
        );
        if g.max_degree() != max_deg {
            return Err(invalid(format!(
                "header max_degree {max_deg} disagrees with degree table ({})",
                g.max_degree()
            )));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lclg-snapshot-{}-{name}.lclg", std::process::id()))
    }

    fn zoo() -> Vec<Graph> {
        vec![
            Graph::new(),
            gen::cycle(17),
            gen::grid(5, 7),
            gen::star(33),
            gen::caterpillar(12, 3, 5),
            gen::random_regular_multigraph(24, 3, 9).unwrap(),
            {
                // Self-loops, parallel edges, isolated nodes.
                let mut g = Graph::new();
                let a = g.add_node();
                let b = g.add_node();
                g.add_node();
                g.add_edge(a, a);
                g.add_edge(a, b);
                g.add_edge(a, b);
                g
            },
        ]
    }

    #[test]
    fn freeze_load_roundtrips_structurally_and_bytewise() {
        for (i, g) in zoo().into_iter().enumerate() {
            let p1 = tmp(&format!("rt-{i}-a"));
            let p2 = tmp(&format!("rt-{i}-b"));
            let hash = g.freeze(&p1).unwrap();
            assert_eq!(hash, g.content_hash());
            let back = Graph::load_frozen(&p1).unwrap();
            assert_eq!(back, g, "graph {i}");
            assert_eq!(back.max_degree(), g.max_degree());
            assert_eq!(back.port_slab_len(), 2 * back.edge_count(), "loaded graph is packed");
            // Re-freezing the loaded graph reproduces the bytes exactly.
            let hash2 = back.freeze(&p2).unwrap();
            assert_eq!(hash2, hash);
            assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap(), "graph {i}");
            fs::remove_file(&p1).ok();
            fs::remove_file(&p2).ok();
        }
    }

    #[test]
    fn content_hash_ignores_slab_slack() {
        // Incrementally built (slack + relocated segments) vs its packed
        // serde twin: same structure, same hash.
        let mut g = Graph::new();
        let hub = g.add_node();
        for _ in 0..19 {
            let leaf = g.add_node();
            g.add_edge(hub, leaf);
        }
        let packed = {
            use serde::{Deserialize, Serialize};
            Graph::from_value(&g.to_value()).unwrap()
        };
        assert!(g.port_slab_len() > 2 * g.edge_count());
        assert_eq!(g.content_hash(), packed.content_hash());
        // And a structurally different graph hashes differently.
        let mut h = g.clone();
        let v = h.add_node();
        h.add_edge(hub, v);
        assert_ne!(g.content_hash(), h.content_hash());
    }

    #[test]
    fn corrupt_header_hash_is_rejected() {
        let g = gen::cycle(9);
        let p = tmp("corrupt-hash");
        g.freeze(&p).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        bytes[24] ^= 0xFF; // first byte of the stored content hash
        fs::write(&p, &bytes).unwrap();
        let err = Graph::load_frozen(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content hash mismatch"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let g = gen::grid(4, 4);
        let p = tmp("corrupt-payload");
        g.freeze(&p).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_and_bad_magic_files_are_rejected() {
        let g = gen::cycle(5);
        let p = tmp("trunc");
        g.freeze(&p).unwrap();
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::write(&p, b"NOPE").unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::remove_file(&p).ok();
        assert!(Graph::load_frozen(Path::new("/definitely/not/here.lclg")).is_err());
    }

    #[test]
    fn header_probe_reads_fields_without_the_payload() {
        let g = gen::grid(6, 4);
        let p = tmp("header-probe");
        let hash = g.freeze(&p).unwrap();
        let h = snapshot_header(&p).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.n, g.node_count());
        assert_eq!(h.m, g.edge_count());
        assert_eq!(h.max_degree, g.max_degree());
        assert_eq!(h.hash, hash);
        // The probe validates magic/version/length but not the payload:
        // a payload flip passes the probe and fails the full loader.
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert_eq!(snapshot_header(&p).unwrap(), h);
        assert!(Graph::load_frozen(&p).is_err());
        // Corrupt headers are typed errors, not panics.
        fs::write(&p, b"NOPE").unwrap();
        assert!(snapshot_header(&p).is_err());
        fs::write(&p, &{
            let mut b = bytes.clone();
            b[5] = 9; // version → garbage
            b
        })
        .unwrap();
        let err = snapshot_header(&p).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // A header whose n cannot fit the file (n = 2³¹ − 1 on a small
        // image) is refused from the file length alone, by both readers.
        fs::write(&p, &{
            let mut b = bytes.clone();
            b[8..12].copy_from_slice(&(i32::MAX as u32).to_le_bytes());
            b
        })
        .unwrap();
        let err = snapshot_header(&p).unwrap_err();
        assert!(err.to_string().contains("n=2147483647"), "{err}");
        assert!(Graph::load_frozen(&p).is_err());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn loader_works_without_mmap() {
        // The byte-slice fallback must decode identically.
        let g = gen::caterpillar(9, 2, 3);
        let p = tmp("no-mmap");
        g.freeze(&p).unwrap();
        std::env::set_var("LCL_NO_MMAP", "1");
        let back = Graph::load_frozen(&p);
        std::env::remove_var("LCL_NO_MMAP");
        assert_eq!(back.unwrap(), g);
        fs::remove_file(&p).ok();
    }
}
