//! FCFS busy-until resources used to model contention.
//!
//! Every shared hardware component — a node's protocol handler, an I/O bus,
//! the SMP snooping bus, a DSM home directory — is modelled as a [`Resource`]
//! holding only the time at which it next falls idle. A request arriving at
//! virtual time `t` with service duration `d` is serviced during
//! `[max(t, idle), max(t, idle) + d)`; the queueing delay `max(t, idle) - t`
//! is the contention the paper repeatedly identifies as the source of
//! "contention-induced imbalance" (Barnes, Radix, Shear-Warp). Callers
//! account that delay themselves from the returned interval.

/// A first-come-first-served resource with one server: the end of the last
/// service interval granted.
#[derive(Clone, Debug, Default)]
pub struct Resource {
    free_at: u64,
}

impl Resource {
    /// New, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Service a request arriving at `arrive` for `dur` cycles.
    /// Returns `(start, end)` of the service interval.
    #[inline]
    pub fn serve(&mut self, arrive: u64, dur: u64) -> (u64, u64) {
        let start = self.free_at.max(arrive);
        let end = start + dur;
        self.free_at = end;
        (start, end)
    }

    /// Make the resource idle from time 0, for a new timed region.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_arrival_queues_idle_arrival_starts_at_once() {
        let mut r = Resource::new();
        assert_eq!(r.serve(100, 10), (100, 110));
        // Arrives while busy: starts when the previous request ends.
        assert_eq!(r.serve(105, 10), (110, 120));
        // Arrives after the resource fell idle: starts on arrival.
        assert_eq!(r.serve(500, 10), (500, 510));
    }

    #[test]
    fn reset_makes_the_resource_idle() {
        let mut r = Resource::new();
        r.serve(0, 1000);
        r.reset();
        assert_eq!(r.serve(5, 10), (5, 15));
    }
}
