//! Snapshot encodings for the network packet vocabulary and the ids it
//! carries.
//!
//! Packets are the one datatype that crosses every subsystem boundary
//! (network slabs, module queues, CE reply latches, retry controllers),
//! so their declarations live here once instead of per subsystem. Enum
//! discriminants are explicit byte values — the wire format must not
//! depend on Rust enum layout.

use crate::ids::{CeId, ClusterId, PageId};
use crate::memory::sync::{Rel, SyncInstr, SyncOpKind, SyncOutcome};
use crate::network::packet::{MemReply, MemRequest, Packet, Payload, RequestKind, Stream};

use super::{codec, Codec, SnapReader, SnapResult, SnapWriter};

codec!(struct CeId(index));
codec!(struct ClusterId(index));
codec!(struct PageId(page));

codec!(enum Stream as "stream" {
    0 => Direct { elem },
    1 => Prefetch { elem, fire_seq },
    2 => Scalar,
    3 => Sync,
    4 => WriteAck,
});

codec!(enum Rel as "rel" {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

/// The operand goes out even for a read (as zero), so every operation
/// is the same five bytes.
impl Codec for SyncOpKind {
    fn put(&self, w: &mut SnapWriter) {
        let (d, v) = match *self {
            SyncOpKind::Read => (0u8, 0i32),
            SyncOpKind::Write(v) => (1, v),
            SyncOpKind::Add(v) => (2, v),
            SyncOpKind::Sub(v) => (3, v),
            SyncOpKind::And(v) => (4, v),
            SyncOpKind::Or(v) => (5, v),
        };
        w.u8(d);
        w.i32(v);
    }

    fn get(r: &mut SnapReader) -> SnapResult<SyncOpKind> {
        let d = r.u8()?;
        let v = r.i32()?;
        Ok(match d {
            0 => SyncOpKind::Read,
            1 => SyncOpKind::Write(v),
            2 => SyncOpKind::Add(v),
            3 => SyncOpKind::Sub(v),
            4 => SyncOpKind::And(v),
            5 => SyncOpKind::Or(v),
            b => return Err(r.err_invalid("sync op", b)),
        })
    }
}

codec!(struct SyncInstr { test, op });
codec!(struct SyncOutcome { old, passed });

codec!(enum RequestKind as "request kind" {
    0 => Read,
    1 => Write,
    2 => Sync(instr),
});

codec!(struct MemRequest { ce, kind, addr, stream, issued, seq, nacked, trace });
codec!(struct MemReply { ce, stream, addr, value, req_issued, seq, nack, trace });

codec!(enum Payload as "payload" {
    0 => Request(req),
    1 => Reply(rep),
});

codec!(struct Packet { dst, words, payload });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycle;

    #[test]
    fn packet_round_trips() {
        let packets = [
            Packet::read_request(
                3,
                MemRequest {
                    ce: CeId(7),
                    kind: RequestKind::Sync(SyncInstr::test_ge_read(5)),
                    addr: 0xDEAD_BEEF,
                    stream: Stream::Prefetch {
                        elem: 9,
                        fire_seq: 1234,
                    },
                    issued: Cycle(42),
                    seq: 17,
                    nacked: true,
                    trace: 99,
                },
            ),
            Packet::reply(
                1,
                MemReply {
                    ce: CeId(1),
                    stream: Stream::Scalar,
                    addr: 8,
                    value: -3,
                    req_issued: Cycle(2),
                    seq: 0,
                    nack: false,
                    trace: 0,
                },
            ),
        ];
        for p in &packets {
            let mut w = SnapWriter::fragment();
            p.put(&mut w);
            let bytes = w.into_fragment();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(&Packet::get(&mut r).unwrap(), p);
            assert!(r.exhausted());
        }
    }
}
