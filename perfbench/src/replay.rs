//! The `wire` and `objects` layers measured on a run's own operation
//! stream: the stream is regenerated from the workload seed, applied
//! to the sequential specification, and its requests and responses
//! are encoded and decoded with the public codec.

use std::hint::black_box;
use std::time::Instant;

use bso::objects::spec::ObjectState;
use bso::objects::{Layout, Op};
use bso::server::wire::{self, Request, Response};

use crate::spans::span;
use crate::stats::median;

/// Per-operation costs of one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    /// Sequential-spec apply, ns per op.
    pub spec_apply_ns: f64,
    /// Request plus response encoding, ns per op.
    pub encode_ns: f64,
    /// Request plus response decoding, ns per op.
    pub decode_ns: f64,
    /// Request plus response frame bytes per op.
    pub bytes: f64,
}

/// Replays `ops` on `layout` `reps` times and reports the median of
/// each cost. `Err` if a spec apply fails or a frame does not decode
/// back to what was encoded.
pub fn measure(layout: &Layout, ops: &[Op], reps: usize) -> Result<Costs, String> {
    let n = ops.len().max(1) as f64;
    let mut runs = Vec::new();
    for _ in 0..reps.max(1) {
        let mut states: Vec<ObjectState> = layout
            .objects()
            .iter()
            .map(ObjectState::from_init)
            .collect();
        let t = Instant::now();
        let values = span("objects", "spec_apply", || {
            ops.iter()
                .map(|op| states[op.obj.0].apply(0, black_box(&op.kind)))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("spec apply: {e}"))?;
        let spec = t.elapsed();

        let mut reqs = Vec::new();
        let mut resps = Vec::new();
        let t = Instant::now();
        span("wire", "encode", || -> Result<(), String> {
            for (i, (op, v)) in ops.iter().zip(&values).enumerate() {
                let req = Request::Apply {
                    pid: 0,
                    op: op.clone(),
                };
                wire::encode_request(i as u64, &req, &mut reqs).map_err(|e| e.to_string())?;
                wire::encode_response(i as u64, &Response::Ok(v.clone()), &mut resps)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let encode = t.elapsed();

        let t = Instant::now();
        let decoded = span("wire", "decode", || -> Result<usize, String> {
            let (mut at_q, mut at_r, mut count) = (0, 0, 0);
            for (i, (op, v)) in ops.iter().zip(&values).enumerate() {
                let q = wire::split_frame(&reqs, at_q)
                    .map_err(|e| e.to_string())?
                    .ok_or("request stream ended early")?;
                let r = wire::split_frame(&resps, at_r)
                    .map_err(|e| e.to_string())?
                    .ok_or("response stream ended early")?;
                at_q = q.end;
                at_r = r.end;
                let (qid, req) = wire::decode_request(&reqs[q]).map_err(|e| e.to_string())?;
                let (rid, resp) =
                    wire::decode_response_current(&resps[r]).map_err(|e| e.to_string())?;
                let same_req = matches!(req, Request::Apply { op: d, .. } if d == *op);
                if qid != i as u64
                    || rid != i as u64
                    || !same_req
                    || resp != Response::Ok(v.clone())
                {
                    return Err(format!("frame {i} did not decode to what was encoded"));
                }
                count += 1;
            }
            Ok(count)
        })?;
        let decode = t.elapsed();
        black_box(decoded);

        runs.push(Costs {
            spec_apply_ns: spec.as_nanos() as f64 / n,
            encode_ns: encode.as_nanos() as f64 / n,
            decode_ns: decode.as_nanos() as f64 / n,
            bytes: (reqs.len() + resps.len()) as f64 / n,
        });
    }
    let med = |f: fn(&Costs) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    Ok(Costs {
        spec_apply_ns: med(|c| c.spec_apply_ns),
        encode_ns: med(|c| c.encode_ns),
        decode_ns: med(|c| c.decode_ns),
        bytes: med(|c| c.bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bso::objects::{ObjectId, ObjectInit, OpKind, Value};

    #[test]
    fn replay_round_trips_and_counts_bytes() {
        let mut layout = Layout::new();
        layout.push(ObjectInit::FetchAdd(0));
        layout.push(ObjectInit::Register(Value::Nil));
        let ops: Vec<Op> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    Op::new(ObjectId(0), OpKind::FetchAdd(1))
                } else {
                    Op::write(ObjectId(1), Value::Int(i))
                }
            })
            .collect();
        let c = measure(&layout, &ops, 3).unwrap();
        assert!(c.bytes > 10.0, "{c:?}");
        assert!(c.encode_ns > 0.0 && c.decode_ns > 0.0, "{c:?}");
    }
}
