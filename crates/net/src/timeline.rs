//! What a fault transfers and when its data lands: the plan handed to
//! [`ClusterNetwork`](crate::ClusterNetwork) and the timings it returns.

use gms_units::{Bytes, Duration, SimTime};

/// Receiver-side CPU cost charged for *follow-on* messages (the faulted
/// subpage itself always pays the measured interrupt-plus-copy cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecvOverhead {
    /// The prototype's measured AN2 behaviour: every message interrupts
    /// the CPU and is copied (68–91 µs per pipelined subpage, §4.3).
    #[default]
    Measured,
    /// The paper's idealized controller that deposits data and updates
    /// subpage valid bits directly, with no CPU involvement.
    Zero,
}

/// What a fault transfers: an ordered list of message sizes.
///
/// `messages[0]` is the faulted subpage — the program resumes when it has
/// been received and copied. Any further messages are follow-on transfers
/// (the rest of the page, or pipelined subpages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferPlan {
    messages: Vec<Bytes>,
    recv_overhead: RecvOverhead,
}

impl TransferPlan {
    /// A plan from explicit message sizes.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty or contains a zero-sized message.
    #[must_use]
    pub fn new(messages: Vec<Bytes>, recv_overhead: RecvOverhead) -> Self {
        assert!(
            !messages.is_empty(),
            "a transfer plan needs at least one message"
        );
        assert!(
            messages.iter().all(|m| !m.is_zero()),
            "transfer messages must be non-empty"
        );
        TransferPlan {
            messages,
            recv_overhead,
        }
    }

    /// The classic full-page fetch: one message carrying the whole page.
    #[must_use]
    pub fn fullpage(page: Bytes) -> Self {
        TransferPlan::new(vec![page], RecvOverhead::Measured)
    }

    /// Eager fullpage fetch: the faulted subpage, then the rest of the
    /// page as a single large follow-on message.
    ///
    /// # Panics
    ///
    /// Panics if `subpage` is not smaller than `page`.
    #[must_use]
    pub fn eager(page: Bytes, subpage: Bytes) -> Self {
        assert!(subpage < page, "subpage must be smaller than the page");
        TransferPlan::new(vec![subpage, page - subpage], RecvOverhead::Measured)
    }

    /// Lazy subpage fetch: just the faulted subpage.
    #[must_use]
    pub fn lazy(subpage: Bytes) -> Self {
        TransferPlan::new(vec![subpage], RecvOverhead::Measured)
    }

    /// Subpage pipelining: the faulted subpage followed by `followons`
    /// individually-sized messages, with the given receiver overhead
    /// model for the follow-ons.
    ///
    /// # Panics
    ///
    /// Panics if any follow-on is zero-sized.
    #[must_use]
    pub fn pipelined(subpage: Bytes, followons: &[Bytes], recv_overhead: RecvOverhead) -> Self {
        let mut messages = Vec::with_capacity(1 + followons.len());
        messages.push(subpage);
        messages.extend_from_slice(followons);
        TransferPlan::new(messages, recv_overhead)
    }

    /// The message sizes, faulted subpage first.
    #[must_use]
    pub fn messages(&self) -> &[Bytes] {
        &self.messages
    }

    /// Total bytes transferred.
    #[must_use]
    pub fn total(&self) -> Bytes {
        self.messages.iter().copied().sum()
    }

    /// The follow-on receive-overhead model.
    #[must_use]
    pub fn recv_overhead(&self) -> RecvOverhead {
        self.recv_overhead
    }
}

/// When one message of a fault became usable at the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageArrival {
    /// Index into the plan's message list.
    pub index: usize,
    /// Message size.
    pub size: Bytes,
    /// Instant the data is usable by the application — or, for a lost
    /// message, when it *would* have reached the requester's NIC.
    pub available_at: SimTime,
    /// Requester CPU consumed receiving this message (zero when lost).
    pub recv_cpu: Duration,
    /// Whether fault injection dropped this message in flight. Lost
    /// messages never mark their subpages valid; a touch re-fetches
    /// them lazily. Always `false` without an installed
    /// [`crate::FaultInjector`].
    pub lost: bool,
}

/// The outcome of scheduling one fault through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    /// When the fault occurred.
    pub fault_at: SimTime,
    /// When the program resumes (first message received and copied).
    pub resume_at: SimTime,
    /// Per-message availability, in plan order.
    pub arrivals: Vec<MessageArrival>,
    /// When the final message is available: the page is complete.
    pub page_complete_at: SimTime,
    /// Requester CPU consumed by follow-on receives (interrupts stolen
    /// from the application after it resumed).
    pub stolen_cpu: Duration,
}

impl FaultTimeline {
    /// Restart latency: fault to resume.
    #[must_use]
    pub fn restart_latency(&self) -> Duration {
        self.resume_at.elapsed_since(self.fault_at)
    }

    /// Fault to page-complete: Table 2's "Rest of Page" column.
    #[must_use]
    pub fn completion_latency(&self) -> Duration {
        self.page_complete_at.elapsed_since(self.fault_at)
    }

    /// The window between program resume and page completion in which the
    /// program can run, net of receive interrupts — Table 2's
    /// "Overlapped Execution" numerator.
    #[must_use]
    pub fn overlap_window(&self) -> Duration {
        self.page_complete_at
            .saturating_since(self.resume_at)
            .saturating_sub(self.stolen_cpu)
    }
}

/// Cumulative busy time per pipeline resource of one requester and the
/// serving side, as a run report carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyTimes {
    /// Requester CPU (fault handling and first-message receives).
    pub req_cpu: Duration,
    /// Requester inbound DMA ring.
    pub req_dma_in: Duration,
    /// Requester outbound DMA ring.
    pub req_dma_out: Duration,
    /// Inbound wire direction (fetch data).
    pub wire_in: Duration,
    /// Outbound wire direction (putpage data).
    pub wire_out: Duration,
    /// Serving-side DMA.
    pub srv_dma: Duration,
    /// Serving-side CPU.
    pub srv_cpu: Duration,
}

impl BusyTimes {
    /// Inbound wire utilization over a run of length `span`: the paper's
    /// key congestion indicator. Zero for an empty span.
    #[must_use]
    pub fn wire_in_utilization(&self, span: Duration) -> f64 {
        if span == Duration::ZERO {
            0.0
        } else {
            self.wire_in.as_nanos() as f64 / span.as_nanos() as f64
        }
    }
}

/// The outcome of scheduling an outbound (requester-to-server) transfer,
/// e.g. a `putpage` pushing an evicted page into global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendTimeline {
    /// When the send was initiated.
    pub send_at: SimTime,
    /// When the sending CPU is free again (GMS putpage is asynchronous:
    /// the application stalls only for this setup time).
    pub cpu_free_at: SimTime,
    /// When the data has fully arrived at the receiving node.
    pub delivered_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_constructors_validate() {
        assert_eq!(
            TransferPlan::eager(Bytes::kib(8), Bytes::kib(1)).total(),
            Bytes::kib(8)
        );
        assert_eq!(TransferPlan::fullpage(Bytes::kib(8)).messages().len(), 1);
        assert_eq!(TransferPlan::lazy(Bytes::new(256)).total(), Bytes::new(256));
    }

    #[test]
    #[should_panic(expected = "smaller than the page")]
    fn eager_rejects_fullsize_subpage() {
        let _ = TransferPlan::eager(Bytes::kib(8), Bytes::kib(8));
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn empty_plan_panics() {
        let _ = TransferPlan::new(vec![], RecvOverhead::Measured);
    }
}
