//! Trace files in the `D2MT` format.
//!
//! The synthetic generator is deterministic, but downstream users of a cache
//! simulator routinely want to (a) snapshot a trace for exact cross-tool
//! comparisons and (b) feed in externally captured traces. This module
//! provides a compact binary format (`D2MT`), its writer and its reader.
//!
//! Format: 8-byte header (`b"D2MT"` + u32-LE record count), then one
//! 12-byte little-endian record per access:
//! `node:u8, kind:u8, asid:u16, vaddr:u64`.

use std::io::{self, Read, Write};

use d2m_common::addr::{Asid, NodeId, VAddr};

use crate::gen::{Access, AccessKind};

const MAGIC: [u8; 4] = *b"D2MT";

/// Serializes a slice of accesses into the `D2MT` binary format.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace<W: Write>(mut w: W, accesses: &[Access]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&(accesses.len() as u32).to_le_bytes())?;
    for a in accesses {
        let kind = match a.kind {
            AccessKind::IFetch => 0u8,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        w.write_all(&[a.node.raw(), kind])?;
        w.write_all(&a.asid.0.to_le_bytes())?;
        w.write_all(&a.vaddr.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a `D2MT` trace.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic number, a truncated stream, or
/// out-of-range fields.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<Access>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a D2MT trace (bad magic)",
        ));
    }
    let count = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    let mut out = Vec::with_capacity(count);
    let mut rec = [0u8; 12];
    for _ in 0..count {
        r.read_exact(&mut rec)?;
        if rec[0] >= 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "node id out of range",
            ));
        }
        let kind = match rec[1] {
            0 => AccessKind::IFetch,
            1 => AccessKind::Load,
            2 => AccessKind::Store,
            k => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown access kind {k}"),
                ))
            }
        };
        out.push(Access {
            node: NodeId::new(rec[0]),
            kind,
            asid: Asid(u16::from_le_bytes(rec[2..4].try_into().expect("2 bytes"))),
            vaddr: VAddr::new(u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"))),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::gen::TraceGen;

    fn sample(n_batches: usize) -> Vec<Access> {
        let spec = catalog::by_name("swaptions").unwrap();
        let mut gen = TraceGen::new(&spec, 8, 1);
        let mut v = Vec::new();
        for _ in 0..n_batches {
            gen.next_batch(&mut v);
        }
        v
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let trace = sample(50);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE\x00\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let trace = sample(2);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn bad_kind_is_rejected() {
        let trace = sample(1);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf[9] = 77; // corrupt the first record's kind byte
        assert!(read_trace(&buf[..]).is_err());
    }
}
