//! Checking answers.
//!
//! Hot queries have one right reply, known before the measured span
//! starts; a reply is first compared byte-for-byte with it (the cheap
//! path a generator thread can afford at full rate) and only a mismatch
//! is parsed to say *why* it is wrong. Cold queries are re-derived in
//! process for a seeded sample after the span. Recall is measured
//! against brute force over the exact embeddings, by distance, so ties
//! between equal vectors cannot make a right answer look wrong.

use trajcl_serve::json::{parse, Json};

/// A kNN reply, decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// `"partial":true` — a fleet answered without all of its shards.
    pub partial: bool,
    /// `(id, distance as printed)` in rank order.
    pub hits: Vec<(u64, String)>,
}

/// Why a reply is not the expected one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wrong {
    /// No reply arrived (timeout, closed connection).
    Missing,
    /// `{"ok":false,...}`, or not the protocol's JSON at all.
    ErrorReply(String),
    /// A fleet answered partially; a partial answer is never correct
    /// here, every shard is up.
    Partial,
    /// The ids differ from the oracle's, at this rank (0-based).
    IdMismatch(usize),
    /// Same ids, but a distance differs in its six printed decimals.
    DistanceMismatch(usize),
}

/// Decodes a kNN reply; `Err` carries the server's error text or the
/// parse failure.
pub fn parse_reply(text: &str) -> Result<Reply, String> {
    let doc = parse(text).map_err(|e| format!("unparseable reply: {e}"))?;
    if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
        let error = doc.get("error").and_then(Json::as_str);
        return Err(error.unwrap_or("reply without \"ok\":true").to_string());
    }
    let hits = doc
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or("reply without \"hits\"")?
        .iter()
        .map(|h| {
            let id = h
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("hit without index")?;
            let dist = h
                .get("distance")
                .and_then(Json::as_f64)
                .ok_or("hit without distance")?;
            Ok((id, format!("{dist:.6}")))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(Reply {
        partial: matches!(doc.get("partial"), Some(Json::Bool(true))),
        hits,
    })
}

/// The oracle's answer for one query: `(id, distance)` in rank order.
pub type Answer = [(u64, f64)];

/// Compares a reply with the oracle's answer id-for-id, and distances to
/// the six decimals the protocol prints.
pub fn check(expected: &Answer, reply: Option<&str>) -> Result<(), Wrong> {
    let Some(text) = reply else {
        return Err(Wrong::Missing);
    };
    let reply = parse_reply(text).map_err(Wrong::ErrorReply)?;
    if reply.partial {
        return Err(Wrong::Partial);
    }
    for (rank, (want, got)) in expected.iter().zip(&reply.hits).enumerate() {
        if want.0 != got.0 {
            return Err(Wrong::IdMismatch(rank));
        }
    }
    if expected.len() != reply.hits.len() {
        return Err(Wrong::IdMismatch(expected.len().min(reply.hits.len())));
    }
    for (rank, (want, got)) in expected.iter().zip(&reply.hits).enumerate() {
        if format!("{:.6}", want.1) != got.1 {
            return Err(Wrong::DistanceMismatch(rank));
        }
    }
    Ok(())
}

/// Like [`check`], for answers re-derived after the fact: the same query
/// embedded in a different batch can differ in its last float bits, so
/// distances may differ by `1e-4` relative and two hits whose true
/// distances are that close may swap places.
pub fn check_rederived(expected: &Answer, reply: Option<&str>) -> Result<(), Wrong> {
    let strict = check(expected, reply);
    let Err(Wrong::IdMismatch(_) | Wrong::DistanceMismatch(_)) = strict else {
        return strict;
    };
    let reply = parse_reply(reply.unwrap_or_default()).map_err(Wrong::ErrorReply)?;
    if reply.hits.len() != expected.len() {
        return Err(Wrong::IdMismatch(expected.len().min(reply.hits.len())));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0);
    for (rank, (want, got)) in expected.iter().zip(&reply.hits).enumerate() {
        let got_dist: f64 = got.1.parse().unwrap_or(f64::NAN);
        if !close(want.1, got_dist) {
            return Err(Wrong::DistanceMismatch(rank));
        }
        // A different id at this rank is a tie swap only if the oracle
        // ranks that id somewhere at an indistinguishable distance.
        if want.0 != got.0 && !expected.iter().any(|e| e.0 == got.0 && close(e.1, want.1)) {
            return Err(Wrong::IdMismatch(rank));
        }
    }
    Ok(())
}

/// Recall@k of served distances against the brute-force answer: a served
/// hit counts when its distance is within the true k-th distance (plus
/// float slack). With distinct vectors this is the usual id recall; with
/// equal vectors under several ids, any of them counts.
pub fn recall(served: &[f64], truth: &Answer) -> f64 {
    let Some(&(_, kth)) = truth.last() else {
        return 1.0;
    };
    let limit = kth + 1e-5 * kth.abs().max(1.0);
    let good = served
        .iter()
        .take(truth.len())
        .filter(|&&d| d <= limit)
        .count();
    good as f64 / truth.len() as f64
}

/// The served distances of a reply, as numbers.
pub fn served_distances(reply: &Reply) -> Vec<f64> {
    reply
        .hits
        .iter()
        .map(|(_, d)| d.parse().unwrap_or(f64::INFINITY))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::knn_reply_text;

    const ANSWER: [(u64, f64); 3] = [(7, 0.5), (3, 1.25), (9, 2.0)];

    #[test]
    fn the_expected_reply_passes() {
        assert_eq!(check(&ANSWER, Some(&knn_reply_text(&ANSWER))), Ok(()));
        let with_req = knn_reply_text(&ANSWER).replacen('{', "{\"req\":41,", 1);
        assert_eq!(check(&ANSWER, Some(&with_req)), Ok(()));
    }

    #[test]
    fn wrong_replies_are_told_apart() {
        assert_eq!(check(&ANSWER, None), Err(Wrong::Missing));
        let swapped = [(7, 0.5), (9, 1.25), (3, 2.0)];
        assert_eq!(
            check(&ANSWER, Some(&knn_reply_text(&swapped))),
            Err(Wrong::IdMismatch(1))
        );
        assert_eq!(
            check(&ANSWER, Some(&knn_reply_text(&ANSWER[..2]))),
            Err(Wrong::IdMismatch(2))
        );
        let off = [(7, 0.5), (3, 1.250_002), (9, 2.0)];
        assert_eq!(
            check(&ANSWER, Some(&knn_reply_text(&off))),
            Err(Wrong::DistanceMismatch(1))
        );
        assert_eq!(
            check(&ANSWER, Some("{\"ok\":false,\"error\":\"boom\"}")),
            Err(Wrong::ErrorReply("boom".into()))
        );
        assert!(matches!(
            check(&ANSWER, Some("not json")),
            Err(Wrong::ErrorReply(_))
        ));
    }

    #[test]
    fn a_partial_fleet_answer_is_never_correct() {
        let body = knn_reply_text(&ANSWER);
        let partial = body.replacen(
            "\"ok\":true,",
            "\"ok\":true,\"partial\":true,\"shards_ok\":3,\"shards_total\":4,",
            1,
        );
        assert_eq!(check(&ANSWER, Some(&partial)), Err(Wrong::Partial));
        let full = body.replacen(
            "\"ok\":true,",
            "\"ok\":true,\"partial\":false,\"shards_ok\":4,\"shards_total\":4,",
            1,
        );
        assert_eq!(check(&ANSWER, Some(&full)), Ok(()));
    }

    #[test]
    fn rederived_answers_tolerate_float_noise_but_not_wrong_ids() {
        let noisy = [(7, 0.500_004), (3, 1.25), (9, 2.0)];
        assert!(check(&ANSWER, Some(&knn_reply_text(&noisy))).is_err());
        assert_eq!(
            check_rederived(&ANSWER, Some(&knn_reply_text(&noisy))),
            Ok(())
        );
        // A tie swap between indistinguishable distances passes ...
        let tied = [(1, 1.0), (2, 1.000_000_1), (5, 3.0)];
        let swapped = [(2, 1.0), (1, 1.0), (5, 3.0)];
        assert_eq!(
            check_rederived(&tied, Some(&knn_reply_text(&swapped))),
            Ok(())
        );
        // ... a foreign id does not.
        let foreign = [(7, 0.5), (4, 1.25), (9, 2.0)];
        assert_eq!(
            check_rederived(&ANSWER, Some(&knn_reply_text(&foreign))),
            Err(Wrong::IdMismatch(1))
        );
        assert_eq!(check_rederived(&ANSWER, None), Err(Wrong::Missing));
    }

    #[test]
    fn recall_counts_by_distance() {
        let truth = [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)];
        assert_eq!(recall(&[1.0, 2.0, 3.0, 4.0], &truth), 1.0);
        // One served hit lies beyond the true 4th distance.
        assert_eq!(recall(&[1.0, 2.0, 3.0, 4.5], &truth), 0.75);
        // Equal vectors under other ids still count.
        assert_eq!(recall(&[1.0, 1.0, 1.0, 1.0], &truth), 1.0);
        assert_eq!(recall(&[], &truth), 0.0);
    }
}
