//! Trace recording and replay.
//!
//! Synthetic generators are convenient, but downstream users often have
//! real access traces. This module defines a compact binary trace format
//! (21 bytes per record, little-endian) that any [`TraceSource`] can be
//! recorded into and replayed from — replay loops at end-of-file so a
//! finite capture can drive arbitrarily long simulations.
//!
//! Format: 8-byte magic `DAPTRACE`, then records of
//! `(gap: u32, kind: u8, addr: u64, pc: u64)`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use mem_sim::trace::{OpKind, TraceOp, TraceSource};

const MAGIC: &[u8; 8] = b"DAPTRACE";
const RECORD_BYTES: usize = 4 + 1 + 8 + 8;

/// Widest physical address a trace record may carry. The simulator
/// models up to 48-bit physical address spaces; anything wider is a
/// corrupt or mis-encoded record, not a real access.
pub const MAX_ADDR_BITS: u32 = 48;

/// A malformed trace file, located precisely: every variant that refers
/// to file content names the record number (1-based, the binary format's
/// analogue of a line number) and the absolute byte offset where the
/// problem starts.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file could not be opened or read.
    Io {
        /// The file being loaded.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The file does not start with the `DAPTRACE` magic.
    BadMagic {
        /// The file being loaded.
        path: PathBuf,
    },
    /// The file ends partway through a record.
    Truncated {
        /// The file being loaded.
        path: PathBuf,
        /// 1-based index of the incomplete record.
        record: u64,
        /// Byte offset where the incomplete record starts.
        offset: u64,
        /// Bytes present of the `RECORD_BYTES`-byte record.
        got: usize,
    },
    /// A record's kind byte is neither 0 (read) nor 1 (write).
    BadKind {
        /// The file being loaded.
        path: PathBuf,
        /// 1-based index of the malformed record.
        record: u64,
        /// Byte offset of the kind byte.
        offset: u64,
        /// The value found there.
        value: u8,
    },
    /// A record's address exceeds [`MAX_ADDR_BITS`] bits.
    AddressOutOfRange {
        /// The file being loaded.
        path: PathBuf,
        /// 1-based index of the malformed record.
        record: u64,
        /// Byte offset of the address field.
        offset: u64,
        /// The out-of-range address.
        addr: u64,
    },
    /// The file holds no records at all.
    Empty {
        /// The file being loaded.
        path: PathBuf,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            TraceFileError::BadMagic { path } => {
                write!(f, "{}: not a DAPTRACE file", path.display())
            }
            TraceFileError::Truncated {
                path,
                record,
                offset,
                got,
            } => write!(
                f,
                "{}: record {record} at byte {offset} is truncated \
                 ({got} of {RECORD_BYTES} bytes)",
                path.display()
            ),
            TraceFileError::BadKind {
                path,
                record,
                offset,
                value,
            } => write!(
                f,
                "{}: record {record} at byte {offset} has invalid kind \
                 byte {value} (expected 0 = read or 1 = write)",
                path.display()
            ),
            TraceFileError::AddressOutOfRange {
                path,
                record,
                offset,
                addr,
            } => write!(
                f,
                "{}: record {record} at byte {offset} has address \
                 {addr:#x}, beyond the {MAX_ADDR_BITS}-bit physical space",
                path.display()
            ),
            TraceFileError::Empty { path } => {
                write!(f, "{}: trace holds no records", path.display())
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Records `n` operations from `source` into the file at `path`,
/// creating any missing parent directories first.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn record(source: &mut dyn TraceSource, n: u64, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    for _ in 0..n {
        let op = source.next_op();
        w.write_all(&op.gap.to_le_bytes())?;
        w.write_all(&[match op.kind {
            OpKind::Read => 0u8,
            OpKind::Write => 1,
        }])?;
        w.write_all(&op.addr.to_le_bytes())?;
        w.write_all(&op.pc.to_le_bytes())?;
    }
    w.flush()
}

/// A replayable trace file, loaded into memory and looped endlessly.
#[derive(Debug, Clone)]
pub struct TraceFile {
    ops: Vec<TraceOp>,
    cursor: usize,
}

impl TraceFile {
    /// Loads a trace from disk, validating every record.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] if the file cannot be read, has a bad
    /// magic, is truncated mid-record, contains a record with an invalid
    /// kind byte or an address beyond [`MAX_ADDR_BITS`] bits, or holds no
    /// records. Content errors name the record number and byte offset.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let io_err = |source| TraceFileError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut r = BufReader::new(File::open(path).map_err(io_err)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(io_err)?;
        if &magic != MAGIC {
            return Err(TraceFileError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(io_err)?;
        let mut ops = Vec::with_capacity(bytes.len() / RECORD_BYTES);
        for (index, c) in bytes.chunks(RECORD_BYTES).enumerate() {
            let record = index as u64 + 1;
            let offset = MAGIC.len() as u64 + index as u64 * RECORD_BYTES as u64;
            if c.len() < RECORD_BYTES {
                return Err(TraceFileError::Truncated {
                    path: path.to_path_buf(),
                    record,
                    offset,
                    got: c.len(),
                });
            }
            let kind = match c[4] {
                0 => OpKind::Read,
                1 => OpKind::Write,
                value => {
                    return Err(TraceFileError::BadKind {
                        path: path.to_path_buf(),
                        record,
                        offset: offset + 4,
                        value,
                    })
                }
            };
            // invariant: `c` comes from chunks_exact(RECORD_BYTES), so
            // these fixed slices always have the converted width.
            let addr = u64::from_le_bytes(c[5..13].try_into().expect("chunk size"));
            if addr >> MAX_ADDR_BITS != 0 {
                return Err(TraceFileError::AddressOutOfRange {
                    path: path.to_path_buf(),
                    record,
                    offset: offset + 5,
                    addr,
                });
            }
            ops.push(TraceOp {
                gap: u32::from_le_bytes(c[0..4].try_into().expect("chunk size")),
                kind,
                addr,
                pc: u64::from_le_bytes(c[13..21].try_into().expect("chunk size")),
            });
        }
        if ops.is_empty() {
            return Err(TraceFileError::Empty {
                path: path.to_path_buf(),
            });
        }
        Ok(Self { ops, cursor: 0 })
    }

    /// Number of recorded operations (one loop iteration).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: `open` rejects empty traces.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for TraceFile {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CloneTrace;
    use crate::spec::spec;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dap_tracefile_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn record_creates_missing_parent_directories() {
        let dir = tmp("nested_dirs");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("a/b/trace.dap");
        let mut gen = CloneTrace::new(spec("mcf").unwrap(), 0x1000_0000, 0);
        record(&mut gen, 5, &path).unwrap();
        assert_eq!(TraceFile::open(&path).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_preserves_operations() {
        let path = tmp("roundtrip");
        let mut gen = CloneTrace::new(spec("mcf").unwrap(), 0x1000_0000, 0);
        let mut reference = gen.clone();
        record(&mut gen, 500, &path).unwrap();
        let mut replay = TraceFile::open(&path).unwrap();
        assert_eq!(replay.len(), 500);
        for _ in 0..500 {
            assert_eq!(replay.next_op(), reference.next_op());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_loops_at_end() {
        let path = tmp("loops");
        let mut gen = CloneTrace::new(spec("libquantum").unwrap(), 0, 0);
        record(&mut gen, 10, &path).unwrap();
        let mut replay = TraceFile::open(&path).unwrap();
        let first: Vec<_> = (0..10).map(|_| replay.next_op()).collect();
        let second: Vec<_> = (0..10).map(|_| replay.next_op()).collect();
        assert_eq!(first, second);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTATRACE").unwrap();
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_record() {
        let path = tmp("truncated");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[0u8; RECORD_BYTES]); // one whole record
        bytes.extend_from_slice(&[0u8; 10]); // then a partial one
        std::fs::write(&path, bytes).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        match &err {
            TraceFileError::Truncated {
                path: p,
                record,
                offset,
                got,
            } => {
                assert_eq!(p, &path);
                assert_eq!(*record, 2);
                assert_eq!(*offset, 8 + RECORD_BYTES as u64);
                assert_eq!(*got, 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("record 2"), "{text}");
        assert!(text.contains("byte 29"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// Builds one valid record, letting tests perturb single fields.
    fn raw_record(gap: u32, kind: u8, addr: u64, pc: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_BYTES);
        out.extend_from_slice(&gap.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&addr.to_le_bytes());
        out.extend_from_slice(&pc.to_le_bytes());
        out
    }

    #[test]
    fn rejects_invalid_kind_byte_with_location() {
        let path = tmp("badkind");
        let mut bytes = MAGIC.to_vec();
        bytes.extend(raw_record(1, 0, 0x100, 0x400));
        bytes.extend(raw_record(1, 7, 0x140, 0x404));
        std::fs::write(&path, bytes).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        match err {
            TraceFileError::BadKind {
                record,
                offset,
                value,
                ..
            } => {
                assert_eq!(record, 2);
                assert_eq!(offset, 8 + RECORD_BYTES as u64 + 4);
                assert_eq!(value, 7);
            }
            other => panic!("expected BadKind, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_out_of_range_address_with_typed_error() {
        let path = tmp("badaddr");
        let bad_addr = 1u64 << MAX_ADDR_BITS;
        let mut bytes = MAGIC.to_vec();
        bytes.extend(raw_record(1, 0, 0x100, 0x400));
        bytes.extend(raw_record(1, 1, bad_addr, 0x404));
        std::fs::write(&path, bytes).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        match err {
            TraceFileError::AddressOutOfRange {
                record,
                offset,
                addr,
                ..
            } => {
                assert_eq!(record, 2);
                assert_eq!(offset, 8 + RECORD_BYTES as u64 + 5);
                assert_eq!(addr, bad_addr);
            }
            other => panic!("expected AddressOutOfRange, got {other:?}"),
        }
        // The widest in-range address still loads.
        let path2 = tmp("maxaddr");
        let mut ok = MAGIC.to_vec();
        ok.extend(raw_record(1, 1, (1u64 << MAX_ADDR_BITS) - 1, 0));
        std::fs::write(&path2, ok).unwrap();
        assert_eq!(TraceFile::open(&path2).unwrap().len(), 1);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(path2).ok();
    }

    #[test]
    fn errors_name_the_file_path() {
        let path = tmp("named");
        std::fs::write(&path, MAGIC).unwrap();
        let err = TraceFile::open(&path).unwrap_err();
        assert!(matches!(err, TraceFileError::Empty { .. }));
        assert!(err.to_string().contains(&path.display().to_string()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_empty_trace() {
        let path = tmp("empty");
        std::fs::write(&path, MAGIC).unwrap();
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn recorded_trace_drives_a_simulation() {
        let path = tmp("simulate");
        let mut gen = CloneTrace::new(spec("hpcg").unwrap(), 0x1000_0000, 0);
        record(&mut gen, 5_000, &path).unwrap();
        let replay = TraceFile::open(&path).unwrap();
        let mut sys = mem_sim::System::new(
            mem_sim::SystemConfig::sectored_dram_cache(1),
            vec![Box::new(replay)],
        );
        let r = sys.run(10_000);
        assert_eq!(r.per_core[0].instructions, 10_000);
        std::fs::remove_file(path).ok();
    }
}
