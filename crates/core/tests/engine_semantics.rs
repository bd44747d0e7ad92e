//! Protocol-semantics tests for the engine's auxiliary entry points:
//! `MPI_Iprobe` interleaved with receive posting, and `MPI_Cancel` racing
//! a same-key arrival. Run against both the baseline and LLA engines —
//! cancellation is exactly the path that punches holes into LLA nodes, so
//! the two engines must stay observably identical through it.

use spc_core::engine::{ArrivalOutcome, MatchEngine, RecvOutcome};
use spc_core::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
use spc_core::list::{BaselineList, Lla};

fn baseline() -> MatchEngine<BaselineList<PostedEntry>, BaselineList<UnexpectedEntry>> {
    MatchEngine::new(BaselineList::new(), BaselineList::new())
}

fn lla() -> MatchEngine<Lla<PostedEntry, 2>, Lla<UnexpectedEntry, 3>> {
    MatchEngine::new(Lla::new(), Lla::new())
}

/// Runs the scenario body against both engine configurations, binding
/// each engine in turn to the closure-style parameter.
macro_rules! for_both {
    (|$e:ident| $body:block) => {{
        let mut $e = baseline();
        $body
        let mut $e = lla();
        $body
    }};
}

#[test]
fn iprobe_then_post_recv_consumes_the_probed_message() {
    for_both!(|e| {
        assert_eq!(
            e.arrival(Envelope::new(2, 9, 0), 70),
            ArrivalOutcome::Queued
        );
        // Probe sees the message without consuming it…
        assert_eq!(e.iprobe(RecvSpec::new(2, 9, 0)), Some((70, 1)));
        assert_eq!(e.umq_len(), 1);
        // …so the following receive must still match that same message.
        match e.post_recv(RecvSpec::new(2, 9, 0), 1) {
            RecvOutcome::MatchedUnexpected { payload, .. } => assert_eq!(payload, 70),
            other => panic!("unexpected {other:?}"),
        }
        // And now the queue is empty for both probe and receive.
        assert_eq!(e.iprobe(RecvSpec::new(2, 9, 0)), None);
        assert_eq!(e.umq_len(), 0);
    });
}

#[test]
fn iprobe_respects_fifo_between_same_key_messages() {
    for_both!(|e| {
        e.arrival(Envelope::new(1, 1, 0), 100);
        e.arrival(Envelope::new(1, 1, 0), 101);
        // Probe must report the earliest arrival, at depth 1.
        assert_eq!(e.iprobe(RecvSpec::new(1, 1, 0)), Some((100, 1)));
        // Receiving takes the earliest; the probe then sees the second.
        match e.post_recv(RecvSpec::new(1, 1, 0), 1) {
            RecvOutcome::MatchedUnexpected { payload, .. } => assert_eq!(payload, 100),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.iprobe(RecvSpec::new(1, 1, 0)), Some((101, 1)));
    });
}

#[test]
fn wildcard_iprobe_reports_global_earliest_and_depth() {
    for_both!(|e| {
        e.arrival(Envelope::new(5, 3, 0), 200);
        e.arrival(Envelope::new(1, 3, 0), 201);
        e.arrival(Envelope::new(1, 4, 0), 202);
        // ANY_SOURCE/tag 3 sees the rank-5 message first (arrival order).
        assert_eq!(e.iprobe(RecvSpec::new(ANY_SOURCE, 3, 0)), Some((200, 1)));
        // Tag 4 sits behind two non-matching entries: depth 3.
        assert_eq!(e.iprobe(RecvSpec::new(ANY_SOURCE, 4, 0)), Some((202, 3)));
        // Fully wild matches the head. Wrong communicator sees nothing.
        assert_eq!(
            e.iprobe(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0)),
            Some((200, 1))
        );
        assert_eq!(e.iprobe(RecvSpec::new(ANY_SOURCE, ANY_TAG, 1)), None);
    });
}

#[test]
fn iprobe_ignores_the_posted_queue() {
    for_both!(|e| {
        // A posted receive is not an unexpected message: probe stays empty.
        assert_eq!(e.post_recv(RecvSpec::new(3, 3, 0), 9), RecvOutcome::Posted);
        assert_eq!(e.iprobe(RecvSpec::new(3, 3, 0)), None);
        // The arrival is swallowed by the posted receive, never hitting the
        // UMQ — the probe must still see nothing.
        match e.arrival(Envelope::new(3, 3, 0), 300) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 9),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.iprobe(RecvSpec::new(3, 3, 0)), None);
    });
}

#[test]
fn cancel_before_arrival_sends_the_message_unexpected() {
    for_both!(|e| {
        assert_eq!(e.post_recv(RecvSpec::new(4, 2, 0), 11), RecvOutcome::Posted);
        assert!(e.cancel_recv(11), "receive is still pending");
        // The cancelled receive must not match: the message goes unexpected.
        assert_eq!(
            e.arrival(Envelope::new(4, 2, 0), 400),
            ArrivalOutcome::Queued
        );
        assert_eq!(e.prq_len(), 0);
        assert_eq!(e.umq_len(), 1);
    });
}

#[test]
fn arrival_before_cancel_wins_the_race() {
    for_both!(|e| {
        assert_eq!(e.post_recv(RecvSpec::new(4, 2, 0), 11), RecvOutcome::Posted);
        match e.arrival(Envelope::new(4, 2, 0), 400) {
            ArrivalOutcome::MatchedPosted { request, .. } => assert_eq!(request, 11),
            other => panic!("unexpected {other:?}"),
        }
        // The receive already completed; cancellation must fail.
        assert!(!e.cancel_recv(11));
        assert_eq!(e.umq_len(), 0);
    });
}

#[test]
fn cancelling_the_earlier_of_two_same_key_receives_promotes_the_later() {
    for_both!(|e| {
        e.post_recv(RecvSpec::new(6, 1, 0), 21);
        e.post_recv(RecvSpec::new(6, 1, 0), 22);
        assert!(e.cancel_recv(21));
        // Non-overtaking continues past the cancelled entry: the arrival
        // must match the surviving (later-posted) receive.
        match e.arrival(Envelope::new(6, 1, 0), 500) {
            ArrivalOutcome::MatchedPosted { request, depth } => {
                assert_eq!(request, 22);
                assert_eq!(depth, 1, "the cancelled entry must not be counted as live");
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

#[test]
fn cancel_in_node_middle_leaves_matching_intact() {
    // LLA-specific shape (also run on baseline for parity): cancelling the
    // middle entry of a node punches an in-band hole that searches must
    // skip without miscounting depth.
    for_both!(|e| {
        for (i, req) in [(0, 31u64), (1, 32), (2, 33), (3, 34)] {
            e.post_recv(RecvSpec::new(7, i, 0), req);
        }
        assert!(e.cancel_recv(32));
        assert!(e.cancel_recv(33));
        assert_eq!(e.prq_len(), 2);
        match e.arrival(Envelope::new(7, 3, 0), 600) {
            ArrivalOutcome::MatchedPosted { request, depth } => {
                assert_eq!(request, 34);
                assert_eq!(depth, 2, "two live entries inspected; holes don't count");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A wildcard receive interleaved after cancellation still matches
        // the earliest surviving entry.
        assert!(e.cancel_recv(31));
        e.post_recv(RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), 40);
        assert_eq!(e.prq_len(), 1);
    });
}
