//! Plain-text weighted edge-list I/O.
//!
//! Format: one edge per line, `u v [w]`, whitespace separated; `#` and `%`
//! prefix comments (SNAP / Matrix-Market-adjacent conventions). Weight
//! defaults to 1. The vertex count is `max id + 1` unless a larger `n` is
//! given by a `# n <count>` header line.
//!
//! Input is validated at this boundary, so nothing downstream sees a
//! graph it cannot solve: a NaN, infinite or negative weight, an id at or
//! above a declared `# n`, and an id (or declared count) whose vertex
//! count does not fit the `u32` id space each return a named [`IoError`]
//! carrying the 1-based line number.

use crate::edgelist::{EdgeList, EdgeListBuilder};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed line with its 1-based number and content.
    Parse(usize, String),
    /// A weight that is NaN, infinite or negative (Louvain's modularity
    /// is defined for non-negative finite weights only).
    BadWeight {
        /// 1-based line number.
        line: usize,
        /// The offending weight.
        weight: f64,
    },
    /// A vertex id at or above the count declared by a `# n` header.
    IdOutOfRange {
        /// 1-based line number of the edge (for a header that follows
        /// its edges: the line of the largest id).
        line: usize,
        /// The offending id.
        id: u32,
        /// The declared vertex count.
        declared_n: usize,
    },
    /// A vertex count past the `u32` id space: an id of `u32::MAX`
    /// (whose `max_id + 1` does not fit) or a larger declared `# n`.
    IdSpaceOverflow {
        /// 1-based line number.
        line: usize,
        /// The vertex count the line implies.
        count: u64,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, s) => write!(f, "parse error on line {line}: {s:?}"),
            IoError::BadWeight { line, weight } => write!(
                f,
                "line {line}: weight {weight} is not a finite non-negative number"
            ),
            IoError::IdOutOfRange {
                line,
                id,
                declared_n,
            } => write!(
                f,
                "line {line}: vertex id {id} is not below the declared vertex count {declared_n}"
            ),
            IoError::IdSpaceOverflow { line, count } => write!(
                f,
                "line {line}: vertex count {count} does not fit the u32 id space (at most {})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a weighted edge list from any reader, refusing input the
/// solvers cannot handle (see the module docs).
pub fn read_edge_list<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    // The `# n` header and the line it sits on.
    let mut declared: Option<(usize, usize)> = None;
    // The largest id and the line it first appeared on.
    let mut max_id: Option<(u32, usize)> = None;
    let br = BufReader::new(reader);
    for (idx, line) in br.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("n") {
                if let Some(Ok(n)) = it.next().map(str::parse::<usize>) {
                    if n > u32::MAX as usize {
                        return Err(IoError::IdSpaceOverflow {
                            line: line_no,
                            count: n as u64,
                        });
                    }
                    declared = Some((n, line_no));
                }
            }
            continue;
        }
        if t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| s.and_then(|x| x.parse::<u32>().ok());
        let (u, v) = match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => (u, v),
            _ => return Err(IoError::Parse(line_no, line.clone())),
        };
        let w = match it.next() {
            None => 1.0,
            Some(s) => s
                .parse::<f64>()
                .map_err(|_| IoError::Parse(line_no, line.clone()))?,
        };
        if !w.is_finite() || w < 0.0 {
            return Err(IoError::BadWeight {
                line: line_no,
                weight: w,
            });
        }
        let hi = u.max(v);
        if hi == u32::MAX {
            return Err(IoError::IdSpaceOverflow {
                line: line_no,
                count: u64::from(hi) + 1,
            });
        }
        if let Some((n, _)) = declared {
            if hi as usize >= n {
                return Err(IoError::IdOutOfRange {
                    line: line_no,
                    id: hi,
                    declared_n: n,
                });
            }
        }
        if max_id.is_none_or(|(m, _)| hi > m) {
            max_id = Some((hi, line_no));
        }
        edges.push((u, v, w));
    }
    let n = match (declared, max_id) {
        // A header after its edges: validate against the largest id now.
        (Some((n, header_line)), Some((m, line))) if line < header_line && m as usize >= n => {
            return Err(IoError::IdOutOfRange {
                line,
                id: m,
                declared_n: n,
            });
        }
        (Some((n, _)), _) => n,
        (None, Some((m, _))) => m as usize + 1,
        (None, None) => 0,
    };
    let mut b = EdgeListBuilder::with_capacity(n, edges.len());
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    Ok(b.build())
}

/// Reads a weighted edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes an edge list (with an `# n` header) to any writer.
pub fn write_edge_list<W: Write>(el: &EdgeList, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n {}", el.num_vertices())?;
    for e in el.edges() {
        if (e.w - 1.0).abs() < f64::EPSILON {
            writeln!(w, "{} {}", e.u, e.v)?;
        } else {
            writeln!(w, "{} {} {}", e.u, e.v, e.w)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes an edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), IoError> {
    write_edge_list(el, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_lines() {
        let text = "# comment\n# n 10\n0 1\n1 2 2.5\n% mm comment\n\n3 3 4\n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 10);
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.total_weight(), 1.0 + 2.5 + 4.0);
    }

    #[test]
    fn n_inferred_from_max_id() {
        let el = read_edge_list("5 9\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_edge_list("0 1\nnot an edge\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn bad_weights_are_refused_with_their_line() {
        for w in ["NaN", "inf", "-inf", "-1", "-0.5"] {
            let text = format!("# n 3\n0 1\n1 2 {w}\n");
            match read_edge_list(text.as_bytes()) {
                Err(IoError::BadWeight { line, .. }) => assert_eq!(line, 3, "weight {w}"),
                other => panic!("weight {w}: unexpected {other:?}"),
            }
        }
        // Zero is a legal (if useless) weight.
        assert!(read_edge_list("0 1 0\n".as_bytes()).is_ok());
    }

    #[test]
    fn ids_at_or_above_declared_n_are_refused() {
        let err = read_edge_list("# n 4\n0 1\n2 4\n".as_bytes()).unwrap_err();
        match err {
            IoError::IdOutOfRange {
                line,
                id,
                declared_n,
            } => assert_eq!((line, id, declared_n), (3, 4, 4)),
            other => panic!("unexpected {other}"),
        }
        // A header after its edges is checked once the header is known.
        let err = read_edge_list("0 7\n1 2\n# n 5\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, IoError::IdOutOfRange { line: 1, id: 7, .. }),
            "{err}"
        );
        // The largest legal id is accepted.
        assert_eq!(
            read_edge_list("# n 4\n0 3\n".as_bytes())
                .unwrap()
                .num_vertices(),
            4
        );
    }

    #[test]
    fn ids_past_the_u32_space_are_refused_not_panicked() {
        let text = format!("0 1\n{} 1\n", u32::MAX);
        match read_edge_list(text.as_bytes()).unwrap_err() {
            IoError::IdSpaceOverflow { line, count } => {
                assert_eq!((line, count), (2, u64::from(u32::MAX) + 1));
            }
            other => panic!("unexpected {other}"),
        }
        // So is a declared count past it.
        let text = format!("# n {}\n0 1\n", u64::from(u32::MAX) + 1);
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(IoError::IdSpaceOverflow { line: 1, .. })
        ));
        // The largest representable id is fine.
        let text = format!("{} 0\n", u32::MAX - 1);
        assert_eq!(
            read_edge_list(text.as_bytes()).unwrap().num_vertices(),
            u32::MAX as usize
        );
    }

    #[test]
    fn roundtrip() {
        let mut b = EdgeListBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 0.5);
        b.add_edge(5, 5, 2.0);
        let el = b.build();
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let el2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el2.num_vertices(), 6);
        assert_eq!(el2.num_edges(), 3);
        assert_eq!(el2.total_weight(), el.total_weight());
    }

    #[test]
    fn empty_input() {
        let el = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }
}
