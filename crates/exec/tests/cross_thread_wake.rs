//! A paused event loop whose one operation waits on a real-clock thread: a
//! coalescing follower whose leader publishes there, and a slot waiter whose
//! one-slot pool is released there. The other thread's wake-up must cost the
//! loop no virtual time and at most two polls after the one that parked the
//! operation — no poll period may stand in for the wake-up.
//!
//! Run with `cargo test -p llmsql-exec --test cross_thread_wake`.

use std::any::Any;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llmsql_exec::{CallSlots, Completion, LiveSet};
use llmsql_llm::{
    ClientCall, CompletionRequest, CompletionResponse, LanguageModel, LlmClient, RequestTable,
};
use llmsql_types::{clock, Result};

/// How long a lost wake-up may hang the loop before the test calls it one.
const HANG: Duration = Duration::from_secs(10);

fn echo(request: &CompletionRequest) -> Result<CompletionResponse> {
    Ok(CompletionResponse {
        text: request.prompt.clone(),
        prompt_tokens: 1,
        completion_tokens: 1,
        latency_ms: 0.0,
        cost_usd: 0.0,
    })
}

/// Answers with the prompt, at once.
struct Echo;

impl LanguageModel for Echo {
    fn name(&self) -> String {
        "echo".into()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        echo(request)
    }
}

/// Answers with the prompt, but first says it was asked and then holds the
/// answer until told to let it go.
struct Held {
    asked: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl LanguageModel for Held {
    fn name(&self) -> String {
        "held".into()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.asked.lock().unwrap().send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        echo(request)
    }
}

/// A client call on the loop, gated by `slots` when there are any, that
/// counts its polls and says when one first found it blocked.
struct Counted {
    call: ClientCall,
    slots: Option<Arc<CallSlots>>,
    polls: usize,
    parked_by: Option<usize>,
    blocked: Sender<()>,
    answer: Option<String>,
}

impl Completion for Counted {
    fn poll(&mut self, now: Instant) -> bool {
        self.polls += 1;
        let slots = self.slots.clone();
        let mut gate = || -> Option<Box<dyn Any + Send>> {
            match &slots {
                None => Some(Box::new(())),
                Some(slots) => Some(Box::new(slots.try_acquire_owned()?)),
            }
        };
        match self.call.poll(now, &mut gate) {
            Some(answer) => self.answer = Some(answer.unwrap().text.clone()),
            None if self.parked_by.is_none() => {
                self.parked_by = Some(self.polls);
                self.blocked.send(()).unwrap();
            }
            None => {}
        }
        self.answer.is_some()
    }
    fn next_wakeup(&self, now: Instant) -> Option<Instant> {
        self.call.next_wakeup(now)
    }
}

/// What the paused loop saw: virtual time spent, polls after the one that
/// parked the operation, the answer and whether a leader served it.
struct Seen {
    elapsed: Duration,
    polls_after: usize,
    answer: String,
    coalesced: bool,
}

/// Run one call for `prompt` over `client` alone on a paused loop in a
/// thread of its own; once it reports itself blocked, `unblock` runs here,
/// on the real clock.
fn wait_across_threads(
    client: LlmClient,
    slots: Option<Arc<CallSlots>>,
    prompt: &str,
    unblock: impl FnOnce(),
) -> Seen {
    let (blocked, is_blocked) = channel();
    let (done, seen) = channel();
    let request = CompletionRequest::new(prompt);
    let paused = thread::spawn(move || {
        let _paused = clock::pause();
        let start = clock::now();
        let mut live = LiveSet::default();
        live.push(Counted {
            call: client.start_call(request),
            slots,
            polls: 0,
            parked_by: None,
            blocked,
            answer: None,
        });
        let Some(Ok(mut op)) = live.wait_head(None) else {
            panic!("the one operation did not resolve");
        };
        done.send(Seen {
            elapsed: clock::now() - start,
            polls_after: op.polls - op.parked_by.expect("the operation never blocked"),
            answer: op.answer.take().unwrap(),
            coalesced: op.call.coalesced(),
        })
        .unwrap();
    });
    is_blocked
        .recv_timeout(HANG)
        .expect("the operation never blocked");
    unblock();
    let seen = seen
        .recv_timeout(HANG)
        .expect("the paused loop was never woken");
    paused.join().unwrap();
    seen
}

#[test]
fn a_follower_woken_by_its_leader_on_another_thread_spends_no_virtual_time() {
    let (asked, was_asked) = channel();
    let (release, released) = channel();
    let held = Held {
        asked: Mutex::new(asked),
        release: Mutex::new(released),
    };
    let coalescer = Arc::new(RequestTable::new());
    let client = LlmClient::with_shared_cache(Arc::new(held), Arc::clone(&coalescer));
    // The leader claims the prompt on its own thread and holds its answer.
    let leader = {
        let client = client.clone();
        thread::spawn(move || client.complete(&CompletionRequest::new("same")))
    };
    was_asked
        .recv_timeout(HANG)
        .expect("the leader never asked");
    let seen = wait_across_threads(client, None, "same", || release.send(()).unwrap());
    assert_eq!(leader.join().unwrap().unwrap().text, "same");
    assert!(seen.coalesced, "the follower issued a call of its own");
    assert_eq!(seen.answer, "same");
    assert_eq!(seen.elapsed, Duration::ZERO, "the wait moved virtual time");
    assert!(
        seen.polls_after <= 2,
        "{} polls to notice",
        seen.polls_after
    );
    assert_eq!(coalescer.in_flight(), 0);
}

#[test]
fn a_slot_waiter_woken_by_a_release_on_another_thread_spends_no_virtual_time() {
    let slots = Arc::new(CallSlots::new(1));
    let held = slots.try_acquire_owned().expect("the one slot is free");
    let client = LlmClient::without_cache(Arc::new(Echo));
    let seen = wait_across_threads(client, Some(Arc::clone(&slots)), "mine", || drop(held));
    assert!(!seen.coalesced);
    assert_eq!(seen.answer, "mine");
    assert_eq!(seen.elapsed, Duration::ZERO, "the wait moved virtual time");
    assert!(
        seen.polls_after <= 2,
        "{} polls to notice",
        seen.polls_after
    );
    assert_eq!(slots.in_use(), 0);
}
