//! Replay passes over the plans and responses recorded from one discovery
//! per key, run after the timed loop: the codec layer (plan and response
//! frames) and `KnowledgeBase` ingest, each gated on reproducing its input.

use std::time::Instant;

use skyweb_core::{decode_plan, decode_responses, encode_plan, encode_responses, KnowledgeBase};
use skyweb_hidden_db::TupleId;

use crate::layers::Exchange;
use crate::stats::median;

/// Repetitions of each replay; the median is reported.
const REPS: usize = 5;

/// Encode and decode cost of a discovery's frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecReplay {
    /// Median time to encode and decode every frame once.
    pub ns: f64,
    /// Plan plus response frame bytes, summed over the round trips.
    pub bytes: u64,
    pub round_trips: u64,
}

/// Encodes every recorded plan and response batch, decodes the frames and
/// re-encodes the decoded values; the bytes must come back identical.
pub fn codec(exchanges: &[Exchange]) -> Result<CodecReplay, String> {
    let plans: Vec<_> = exchanges.iter().map(Exchange::plan).collect();
    let mut bytes = 0;
    for (plan, x) in plans.iter().zip(exchanges) {
        let plan_frame = encode_plan(plan);
        let again = decode_plan(&plan_frame).map_err(|e| format!("plan frame: {e}"))?;
        let resp_frame = encode_responses(&x.responses);
        let decoded = decode_responses(&resp_frame).map_err(|e| format!("response frame: {e}"))?;
        if encode_plan(&again) != plan_frame || encode_responses(&decoded) != resp_frame {
            return Err("a frame did not re-encode to the same bytes".into());
        }
        bytes += (plan_frame.len() + resp_frame.len()) as u64;
    }
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        for (plan, x) in plans.iter().zip(exchanges) {
            let plan_frame = std::hint::black_box(encode_plan(plan));
            std::hint::black_box(decode_plan(&plan_frame).map_err(|e| e.to_string())?);
            let resp_frame = std::hint::black_box(encode_responses(&x.responses));
            std::hint::black_box(decode_responses(&resp_frame).map_err(|e| e.to_string())?);
        }
        times.push(t.elapsed().as_nanos() as f64);
    }
    Ok(CodecReplay {
        ns: median(&times),
        bytes,
        round_trips: exchanges.len() as u64,
    })
}

/// Ingest cost of a discovery's responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReplay {
    /// Median time to ingest every response into a fresh knowledge base.
    pub ns: f64,
    /// Tuples in the responses, repeats included.
    pub tuples: u64,
}

/// Replays the responses, in order, into a fresh [`KnowledgeBase`] over
/// `attrs`; its skyline must equal `truth` (ascending ids).
pub fn ingest(
    exchanges: &[Exchange],
    attrs: &[usize],
    truth: &[TupleId],
) -> Result<IngestReplay, String> {
    let mut times = Vec::with_capacity(REPS);
    let mut skyline = Vec::new();
    for _ in 0..REPS {
        let mut kb = KnowledgeBase::new(attrs.to_vec());
        let t = Instant::now();
        for x in exchanges {
            for tuples in x.tuples() {
                kb.ingest(tuples);
            }
        }
        times.push(t.elapsed().as_nanos() as f64);
        skyline = kb.skyline_tuples().iter().map(|t| t.id).collect();
    }
    skyline.sort_unstable();
    if skyline != truth {
        return Err("replayed ingest produced another skyline".into());
    }
    Ok(IngestReplay {
        ns: median(&times),
        tuples: exchanges
            .iter()
            .flat_map(Exchange::tuples)
            .map(|t| t.len() as u64)
            .sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use skyweb_hidden_db::{Predicate, Query, QueryResponse, Tuple};

    fn exchange(tuples: &[(u64, [u32; 2])]) -> Exchange {
        Exchange {
            queries: vec![Query::new(vec![Predicate::lt(0, 3)]), Query::select_all()],
            groups: None,
            responses: vec![
                QueryResponse {
                    tuples: tuples
                        .iter()
                        .map(|&(id, v)| Arc::new(Tuple::new(id, v.to_vec())))
                        .collect(),
                    overflowed: true,
                },
                QueryResponse {
                    tuples: Vec::new(),
                    overflowed: false,
                },
            ],
        }
    }

    #[test]
    fn codec_replay_counts_bytes_and_round_trips() {
        let xs = [
            exchange(&[(1, [0, 4]), (2, [4, 0])]),
            exchange(&[(3, [1, 1])]),
        ];
        let r = codec(&xs).unwrap();
        assert_eq!(r.round_trips, 2);
        assert!(r.bytes > 0 && r.ns > 0.0);
    }

    #[test]
    fn ingest_replay_is_gated_on_the_skyline() {
        let xs = [exchange(&[(1, [0, 4]), (2, [4, 0]), (3, [5, 5])])];
        let r = ingest(&xs, &[0, 1], &[1, 2]).unwrap();
        assert_eq!(r.tuples, 3);
        assert!(ingest(&xs, &[0, 1], &[1]).is_err());
    }
}
