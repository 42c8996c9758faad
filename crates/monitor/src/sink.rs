//! Pluggable consumers for match events.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::engine::Event;

/// A consumer of confirmed match events. Implementations must be cheap:
/// they run on the ingestion path.
pub trait MatchSink: Send + Sync {
    /// Called once per confirmed match, in confirmation order per stream.
    fn on_match(&self, event: &Event);
}

/// Collects events into a shared vector (test/offline usage).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Locks the event buffer, recovering the data from a poisoned
    /// mutex: a consumer that panicked while holding the lock must not
    /// take the whole ingestion path down with it (the buffer itself is
    /// a plain `Vec` of `Copy` events, so no invariant can be torn).
    fn lock(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the events received so far.
    pub fn events(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Number of events received so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no event was received yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl MatchSink for VecSink {
    fn on_match(&self, event: &Event) {
        self.lock().push(*event);
    }
}

/// Invokes a closure per event.
pub struct FnSink<F: Fn(&Event) + Send + Sync>(pub F);

impl<F: Fn(&Event) + Send + Sync> MatchSink for FnSink<F> {
    fn on_match(&self, event: &Event) {
        (self.0)(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AttachmentId, QueryId, StreamId};
    use spring_core::{Match, MonitorVariant};

    fn event(start: u64) -> Event {
        Event {
            stream: StreamId(0),
            query: QueryId(0),
            attachment: AttachmentId(0),
            variant: MonitorVariant::Spring,
            m: Match {
                start,
                end: start + 1,
                distance: 0.0,
                reported_at: start + 2,
                group_start: start,
                group_end: start + 1,
            },
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = VecSink::new();
        assert!(sink.is_empty());
        sink.on_match(&event(1));
        sink.on_match(&event(5));
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].m.start, 1);
        assert_eq!(evs[1].m.start, 5);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let count = std::sync::atomic::AtomicUsize::new(0);
        let sink = FnSink(|_: &Event| {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        sink.on_match(&event(1));
        sink.on_match(&event(2));
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn vec_sink_survives_a_poisoned_mutex() {
        let sink = VecSink::new();
        sink.on_match(&event(1));
        // Poison the inner mutex: a thread panics while holding it.
        let poisoner = sink.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.events.lock().unwrap();
            panic!("poison the sink");
        })
        .join()
        .unwrap_err();
        assert!(sink.events.lock().is_err(), "mutex should be poisoned");
        // All accessors recover the inner data instead of panicking.
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
        sink.on_match(&event(2));
        let starts: Vec<u64> = sink.events().iter().map(|e| e.m.start).collect();
        assert_eq!(starts, vec![1, 2]);
    }
}
