//! Property test for the job lifecycle state machine, plus the
//! cancel-at-boundary contract.
//!
//! Random interleavings of submit / claim / park / complete / fail /
//! cancel events drive the pure [`JobTable`]; after every event the
//! table's structural invariants must hold, every observed state change
//! must be an edge of the lifecycle diagram, and terminal states must
//! never move again. Inapplicable events must reject without mutating.
//!
//! The integration half pins the cancellation *timing* contract on a
//! live server: a cancel against a running job is honored at the job's
//! next macro-step boundary — the job ends `cancelled`, never `done`,
//! and its spill trail is gone.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use simd_tree_search::serve::{client, JobServer, JobState, JobTable, ServeConfig};

/// One scheduler event. Job indices are resolved modulo the ids issued
/// so far, so sequences stay meaningful however many submits occur.
#[derive(Debug, Clone)]
enum Event {
    Submit,
    Claim,
    Park(usize),
    Complete(usize),
    Fail(usize),
    FinishCancelled(usize),
    Cancel(usize),
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        2 => Just(Event::Submit),
        3 => Just(Event::Claim),
        2 => (0usize..64).prop_map(Event::Park),
        2 => (0usize..64).prop_map(Event::Complete),
        1 => (0usize..64).prop_map(Event::Fail),
        1 => (0usize..64).prop_map(Event::FinishCancelled),
        2 => (0usize..64).prop_map(Event::Cancel),
    ]
}

/// The lifecycle diagram as a relation: every legal `(from, to)` edge.
fn legal_edge(from: JobState, to: JobState) -> bool {
    use JobState::*;
    matches!(
        (from, to),
        (Queued, Running)          // claim
            | (Queued, Cancelled)  // cancel while waiting
            | (Running, Parked)    // preempt at a boundary
            | (Running, Done)      // finish
            | (Running, Failed)    // spill failure
            | (Running, Cancelled) // cancel observed at a boundary
            | (Parked, Running)    // re-claim
            | (Parked, Cancelled) // cancel while parked
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_event_interleavings_never_take_an_illegal_transition(
        events in proptest::collection::vec(arb_event(), 1..200),
    ) {
        let mut table = JobTable::new();
        let mut ids: Vec<u64> = Vec::new();

        for event in events {
            let pick = |k: usize| ids.get(k % ids.len().max(1)).copied();
            let before: Vec<(u64, JobState, u32)> =
                ids.iter().map(|&id| {
                    let j = table.get(id).expect("issued ids persist");
                    (id, j.state, j.preemptions)
                }).collect();

            let applied = match event {
                Event::Submit => {
                    let id = table.submit();
                    prop_assert!(ids.last().is_none_or(|&last| id == last + 1),
                        "ids are sequential and never reused");
                    ids.push(id);
                    true
                }
                Event::Claim => table.claim_next().is_some(),
                Event::Park(k) => pick(k).is_some_and(|id| table.park(id)),
                Event::Complete(k) => pick(k).is_some_and(|id| table.complete(id)),
                Event::Fail(k) => pick(k).is_some_and(|id| table.fail(id)),
                Event::FinishCancelled(k) =>
                    pick(k).is_some_and(|id| table.finish_cancelled(id)),
                Event::Cancel(k) => pick(k).and_then(|id| table.cancel(id)).is_some(),
            };

            table.check_invariants();
            for (id, old_state, old_preemptions) in before {
                let job = table.get(id).expect("issued ids persist");
                if job.state != old_state {
                    prop_assert!(applied, "a rejected event mutated job {id}");
                    prop_assert!(
                        legal_edge(old_state, job.state),
                        "illegal transition {:?} → {:?} on job {id}",
                        old_state, job.state
                    );
                    prop_assert!(!old_state.is_terminal(),
                        "terminal job {id} moved to {:?}", job.state);
                }
                prop_assert!(job.preemptions >= old_preemptions,
                    "preemption counts are monotone");
            }
        }
    }

    /// A cancelled-or-finished job stays exactly where it is forever,
    /// whatever storm of events follows.
    #[test]
    fn terminal_states_are_absorbing(
        prefix in proptest::collection::vec(arb_event(), 1..60),
        suffix in proptest::collection::vec(arb_event(), 1..60),
    ) {
        let mut table = JobTable::new();
        let mut ids: Vec<u64> = Vec::new();
        let drive = |table: &mut JobTable, ids: &mut Vec<u64>, events: &[Event]| {
            for event in events {
                let pick = |ids: &[u64], k: usize| ids.get(k % ids.len().max(1)).copied();
                match event.clone() {
                    Event::Submit => {
                        let id = table.submit();
                        ids.push(id);
                    }
                    Event::Claim => {
                        table.claim_next();
                    }
                    Event::Park(k) => {
                        if let Some(id) = pick(ids, k) {
                            table.park(id);
                        }
                    }
                    Event::Complete(k) => {
                        if let Some(id) = pick(ids, k) {
                            table.complete(id);
                        }
                    }
                    Event::Fail(k) => {
                        if let Some(id) = pick(ids, k) {
                            table.fail(id);
                        }
                    }
                    Event::FinishCancelled(k) => {
                        if let Some(id) = pick(ids, k) {
                            table.finish_cancelled(id);
                        }
                    }
                    Event::Cancel(k) => {
                        if let Some(id) = pick(ids, k) {
                            table.cancel(id);
                        }
                    }
                }
            }
        };
        drive(&mut table, &mut ids, &prefix);
        let terminal: Vec<(u64, JobState)> = ids
            .iter()
            .filter_map(|&id| {
                let s = table.get(id).expect("issued").state;
                s.is_terminal().then_some((id, s))
            })
            .collect();
        drive(&mut table, &mut ids, &suffix);
        for (id, state) in terminal {
            prop_assert_eq!(table.get(id).expect("issued").state, state,
                "terminal job {} moved", id);
        }
    }
}

#[test]
fn cancel_is_honored_at_the_next_macro_step_boundary() {
    let dir =
        std::env::temp_dir().join(format!("uts-service-lifecycle-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 60_000; // the governor must NOT be what stops the job
    let server = JobServer::start(cfg).unwrap();
    let addr = server.addr();

    // A deep tree: seconds of work in any build, so the cancel always lands
    // with many macro-step boundaries still ahead.
    let spec = r#"{"workload":{"kind":"synth","seed":4242,"b_max":8,"depth_limit":12},"p":16}"#;
    let (status, _) = client::post(addr, "/submit", spec);
    assert_eq!(status, 200);

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = client::get(addr, "/status/1");
        if body.contains("\"running\"") {
            break;
        }
        assert!(!body.contains("\"done\""), "job finished before the cancel could land");
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = client::post(addr, "/cancel/1", "");
    assert_eq!(status, 200, "{body}");

    // The running engine observes the raised signal at its next boundary
    // and stops as cancelled — never as done.
    loop {
        let (_, body) = client::get(addr, "/status/1");
        if body.contains("\"cancelled\"") {
            break;
        }
        assert!(!body.contains("\"done\""), "cancel was not honored: job ran to completion");
        assert!(Instant::now() < deadline, "cancel never took effect");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = client::get(addr, "/result/1");
    assert_eq!(status, 409, "a cancelled job has no result: {body}");
    assert!(body.contains(r#""kind":"cancelled""#), "a cancelled job says so: {body}");
    assert!(!dir.join("job-00000001.park").exists(), "cancel left a parked snapshot behind");
    assert!(!dir.join("job-00000001.done").exists(), "cancel left a result behind");

    // Cancelling again is idempotent; cancelling the void is a 404.
    let (status, body) = client::post(addr, "/cancel/1", "");
    assert_eq!(status, 200);
    assert!(body.contains("cancelled"), "{body}");
    let (status, _) = client::post(addr, "/cancel/7", "");
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
