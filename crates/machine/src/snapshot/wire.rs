//! Snapshot encodings for the network packet vocabulary.
//!
//! Packets are the one datatype that crosses every subsystem boundary
//! (network slabs, module queues, CE reply latches, retry controllers),
//! so their encoding lives here once instead of per subsystem. Enum
//! discriminants are explicit byte values — the wire format must not
//! depend on Rust enum layout.

use crate::ids::CeId;
use crate::memory::sync::{Rel, SyncInstr, SyncOpKind};
use crate::network::packet::{MemReply, MemRequest, Packet, Payload, RequestKind, Stream};

use super::{SnapReader, SnapResult, SnapWriter};

fn put_stream(w: &mut SnapWriter, s: Stream) {
    match s {
        Stream::Direct { elem } => {
            w.u8(0);
            w.u32(elem);
        }
        Stream::Prefetch { elem, fire_seq } => {
            w.u8(1);
            w.u32(elem);
            w.u64(fire_seq);
        }
        Stream::Scalar => w.u8(2),
        Stream::Sync => w.u8(3),
        Stream::WriteAck => w.u8(4),
    }
}

fn get_stream(r: &mut SnapReader) -> SnapResult<Stream> {
    Ok(match r.u8()? {
        0 => Stream::Direct { elem: r.u32()? },
        1 => Stream::Prefetch {
            elem: r.u32()?,
            fire_seq: r.u64()?,
        },
        2 => Stream::Scalar,
        3 => Stream::Sync,
        4 => Stream::WriteAck,
        b => return Err(r.err_invalid("stream", b)),
    })
}

fn put_rel(w: &mut SnapWriter, rel: Rel) {
    w.u8(match rel {
        Rel::Eq => 0,
        Rel::Ne => 1,
        Rel::Lt => 2,
        Rel::Le => 3,
        Rel::Gt => 4,
        Rel::Ge => 5,
    });
}

fn get_rel(r: &mut SnapReader) -> SnapResult<Rel> {
    Ok(match r.u8()? {
        0 => Rel::Eq,
        1 => Rel::Ne,
        2 => Rel::Lt,
        3 => Rel::Le,
        4 => Rel::Gt,
        5 => Rel::Ge,
        b => return Err(r.err_invalid("rel", b)),
    })
}

pub(crate) fn put_sync_instr(w: &mut SnapWriter, si: SyncInstr) {
    w.opt(si.test.as_ref(), |w, (rel, operand)| {
        put_rel(w, *rel);
        w.i32(*operand);
    });
    let (d, v) = match si.op {
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

pub(crate) fn get_sync_instr(r: &mut SnapReader) -> SnapResult<SyncInstr> {
    let test = r.opt(|r| Ok((get_rel(r)?, r.i32()?)))?;
    let d = r.u8()?;
    let v = r.i32()?;
    let op = match d {
        0 => SyncOpKind::Read,
        1 => SyncOpKind::Write(v),
        2 => SyncOpKind::Add(v),
        3 => SyncOpKind::Sub(v),
        4 => SyncOpKind::And(v),
        5 => SyncOpKind::Or(v),
        b => return Err(r.err_invalid("sync op", b)),
    };
    Ok(SyncInstr { test, op })
}

pub(crate) fn put_request(w: &mut SnapWriter, req: &MemRequest) {
    w.usize(req.ce.0);
    match req.kind {
        RequestKind::Read => w.u8(0),
        RequestKind::Write => w.u8(1),
        RequestKind::Sync(si) => {
            w.u8(2);
            put_sync_instr(w, si);
        }
    }
    w.u64(req.addr);
    put_stream(w, req.stream);
    w.cycle(req.issued);
    w.u64(req.seq);
    w.bool(req.nacked);
    w.u64(req.trace);
}

pub(crate) fn get_request(r: &mut SnapReader) -> SnapResult<MemRequest> {
    let ce = CeId(r.usize()?);
    let kind = match r.u8()? {
        0 => RequestKind::Read,
        1 => RequestKind::Write,
        2 => RequestKind::Sync(get_sync_instr(r)?),
        b => return Err(r.err_invalid("request kind", b)),
    };
    Ok(MemRequest {
        ce,
        kind,
        addr: r.u64()?,
        stream: get_stream(r)?,
        issued: r.cycle()?,
        seq: r.u64()?,
        nacked: r.bool()?,
        trace: r.u64()?,
    })
}

pub(crate) fn put_reply(w: &mut SnapWriter, rep: &MemReply) {
    w.usize(rep.ce.0);
    put_stream(w, rep.stream);
    w.u64(rep.addr);
    w.i64(rep.value);
    w.cycle(rep.req_issued);
    w.u64(rep.seq);
    w.bool(rep.nack);
    w.u64(rep.trace);
}

pub(crate) fn get_reply(r: &mut SnapReader) -> SnapResult<MemReply> {
    Ok(MemReply {
        ce: CeId(r.usize()?),
        stream: get_stream(r)?,
        addr: r.u64()?,
        value: r.i64()?,
        req_issued: r.cycle()?,
        seq: r.u64()?,
        nack: r.bool()?,
        trace: r.u64()?,
    })
}

pub(crate) fn put_packet(w: &mut SnapWriter, p: &Packet) {
    w.usize(p.dst);
    w.u8(p.words);
    match &p.payload {
        Payload::Request(req) => {
            w.u8(0);
            put_request(w, req);
        }
        Payload::Reply(rep) => {
            w.u8(1);
            put_reply(w, rep);
        }
    }
}

pub(crate) fn get_packet(r: &mut SnapReader) -> SnapResult<Packet> {
    let dst = r.usize()?;
    let words = r.u8()?;
    let payload = match r.u8()? {
        0 => Payload::Request(get_request(r)?),
        1 => Payload::Reply(get_reply(r)?),
        b => return Err(r.err_invalid("payload", b)),
    };
    Ok(Packet {
        dst,
        words,
        payload,
    })
}

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
            put_packet(&mut w, p);
            let bytes = w.into_fragment();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(&get_packet(&mut r).unwrap(), p);
            assert!(r.exhausted());
        }
    }
}
