//! Single-thread replays of a workload's own data through one layer at a
//! time, outside any world: the local kernel (no runtime), the codec, and a
//! public `QueueTransport` pair (the aggregation and seal path, then the
//! receiver's progress drain). Each replay repeats whole passes for at
//! least `REPLAY_TIME` and reports time per op or per message.

use crate::workloads::{Workload, BATCH, PES, SMALL_BATCH, TABLE_PER_PE};
use bale_suite::index_gather::table_value;
use lamellar_codec::{Codec, Reader};
use lamellar_core::lamellae::queue::{queue_footprint, QueueTransport};
use lamellar_core::proto;
use rofi_sim::fabric::{Fabric, FabricConfig};
use rofi_sim::NetConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPLAY_TIME: Duration = Duration::from_millis(200);

/// Run `pass` (which does `ops_per_pass` ops) until `REPLAY_TIME` has
/// passed; returns ns per op.
fn ns_per_op(ops_per_pass: u64, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches and allocations
    let t = Instant::now();
    let mut ops = 0u64;
    while t.elapsed() < REPLAY_TIME {
        pass();
        ops += ops_per_pass;
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// The workload's stream applied to a plain local table by one thread.
pub fn kernel_ns_per_op(w: Workload, stream: &[usize], pings: &[u64]) -> f64 {
    let glen = TABLE_PER_PE * PES;
    match w {
        Workload::HistoAm | Workload::HistoArray => {
            let mut table = vec![0usize; glen];
            ns_per_op(stream.len() as u64, || {
                for &g in black_box(stream) {
                    table[g] += 1;
                }
                black_box(&mut table);
            })
        }
        Workload::GatherRo | Workload::GatherSmall => {
            let table: Vec<u64> = (0..glen).map(table_value).collect();
            let mut out = vec![0u64; stream.len()];
            ns_per_op(stream.len() as u64, || {
                for (o, &g) in out.iter_mut().zip(black_box(stream)) {
                    *o = table[g];
                }
                black_box(&mut out);
            })
        }
        Workload::AmPingpong => ns_per_op(pings.len() as u64, || {
            let mut acc = 0u64;
            for &x in black_box(pings) {
                acc ^= x.wrapping_add(1);
            }
            black_box(acc);
        }),
    }
}

/// The wire values of one round's AMs: per-destination batches of local
/// offsets, as the workload ships them.
fn offset_batches<T: Copy>(stream: &[usize], conv: impl Fn(usize) -> T) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    for dst in 0..PES {
        let local: Vec<T> = stream
            .iter()
            .filter(|&&g| g / TABLE_PER_PE == dst)
            .map(|&g| conv(g % TABLE_PER_PE))
            .collect();
        out.extend(local.chunks(BATCH).map(|c| c.to_vec()));
    }
    out
}

/// Encode and decode cost of one message list: (encode ns, decode ns,
/// bytes), each totalled over one pass.
fn codec_pass<T: Codec + PartialEq>(msgs: &[T]) -> (f64, f64, f64) {
    let mut bufs: Vec<Vec<u8>> = msgs.iter().map(|_| Vec::new()).collect();
    let encode_ns = ns_per_op(1, || {
        for (m, b) in msgs.iter().zip(bufs.iter_mut()) {
            b.clear();
            m.encode(b);
        }
        black_box(&mut bufs);
    });
    let decode_ns = ns_per_op(1, || {
        for (m, b) in msgs.iter().zip(&bufs) {
            let v = T::decode(&mut Reader::new(black_box(b))).expect("replayed value decodes");
            assert!(v == *m, "codec replay must round-trip");
        }
    });
    let bytes = bufs.iter().map(Vec::len).sum::<usize>();
    (encode_ns, decode_ns, bytes as f64)
}

/// Codec cost of the workload's AM values: (encode ns/op, decode ns/op,
/// encoded bytes/op). Requests and, where the workload has them, replies.
pub fn codec_per_op(w: Workload, stream: &[usize], pings: &[u64]) -> (f64, f64, f64) {
    let (parts, ops) = match w {
        Workload::HistoAm => {
            (vec![codec_pass(&offset_batches(stream, |l| l as u32))], stream.len())
        }
        Workload::HistoArray => (vec![codec_pass(&offset_batches(stream, |l| l))], stream.len()),
        Workload::GatherRo => {
            let values = offset_batches(stream, table_value);
            (vec![codec_pass(&offset_batches(stream, |l| l)), codec_pass(&values)], stream.len())
        }
        Workload::GatherSmall => {
            let calls = stream.chunks(SMALL_BATCH);
            let requests: Vec<Vec<usize>> =
                calls.clone().flat_map(|c| offset_batches(c, |l| l)).collect();
            let values: Vec<Vec<u64>> =
                calls.flat_map(|c| offset_batches(c, table_value)).collect();
            (vec![codec_pass(&requests), codec_pass(&values)], stream.len())
        }
        Workload::AmPingpong => {
            let replies: Vec<u64> = pings.iter().map(|x| x.wrapping_add(1)).collect();
            (vec![codec_pass(pings), codec_pass(&replies)], pings.len())
        }
    };
    let ops = ops as f64;
    parts
        .iter()
        .fold((0.0, 0.0, 0.0), |acc, p| (acc.0 + p.0 / ops, acc.1 + p.1 / ops, acc.2 + p.2 / ops))
}

/// ns per framed message pushed through a `QueueTransport` pair by one
/// thread, with the receiver drained inline (as `ablation_msgpath` does).
/// The message is the workload's: a unit request carrying one batch for
/// the histograms, a tracked request carrying one batch of offsets for the
/// gathers (one call's share of a PE for the small gather), a tracked 8-byte
/// request for the ping-pong.
pub fn lamellae_ns_per_msg(
    w: Workload,
    stream: &[usize],
    buffer_size: usize,
    agg_threshold: usize,
) -> f64 {
    let payload: Vec<u8> = match w {
        Workload::HistoAm => offset_batches(stream, |l| l as u32).swap_remove(0).to_bytes(),
        Workload::HistoArray | Workload::GatherRo => {
            offset_batches(stream, |l| l).swap_remove(0).to_bytes()
        }
        Workload::GatherSmall => {
            offset_batches(&stream[..SMALL_BATCH], |l| l).swap_remove(0).to_bytes()
        }
        Workload::AmPingpong => 7u64.to_bytes(),
    };
    let unit = matches!(w, Workload::HistoAm | Workload::HistoArray);
    let footprint = queue_footprint(PES, buffer_size);
    let mut eps = Fabric::launch(FabricConfig {
        num_pes: PES,
        sym_len: footprint + 4096,
        heap_len: 4096,
        net: NetConfig::disabled(),
        metrics: true,
        fault: None,
    });
    let base = eps[0].fabric().alloc_symmetric(footprint, 64).expect("room for the queue block");
    let ep1 = eps.pop().expect("PE 1 endpoint");
    let ep0 = eps.pop().expect("PE 0 endpoint");
    let q0 = QueueTransport::new(ep0, base, buffer_size, agg_threshold);
    let q1 = QueueTransport::new(ep1, base, buffer_size, agg_threshold);
    let len = if unit {
        proto::framed_request_unit_len(payload.len())
    } else {
        proto::framed_request_len(payload.len())
    };
    // Drain about once per aggregation buffer, so the sender never waits
    // on a full wire buffer.
    let per_drain = (agg_threshold / len).max(1);
    let mut seq = 0u64;
    ns_per_op(per_drain as u64, || {
        for _ in 0..per_drain {
            seq += 1;
            q0.send_with(1, len, &mut |buf| {
                if unit {
                    proto::frame_request_unit_with(buf, 1, 0, payload.len(), |b| {
                        b.extend_from_slice(&payload)
                    });
                } else {
                    proto::frame_request_with(buf, 1, seq, 0, payload.len(), |b| {
                        b.extend_from_slice(&payload)
                    });
                }
            });
        }
        while !q0.outgoing_empty() {
            q0.flush();
            q1.progress(&mut |_, chunk| {
                black_box(chunk);
            });
        }
    })
}
