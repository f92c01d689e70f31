//! The simulated distributed-memory machine.
//!
//! Each "processor" is an OS thread with private state; processors
//! communicate only through explicit point-to-point messages carried by
//! channels (the "virtual crossbar" the paper assumes).  Each processor
//! counts the messages and words it sends ([`CommStats`]).

use crate::CostModel;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-processor communication accounting.
#[derive(Debug, Default)]
pub struct CommStats {
    messages_sent: Mutex<u64>,
    words_sent: Mutex<u64>,
}

impl CommStats {
    fn record(&self, words: u64) {
        *self.messages_sent.lock() += 1;
        *self.words_sent.lock() += words;
    }

    /// Number of messages this processor sent.
    pub fn messages_sent(&self) -> u64 {
        *self.messages_sent.lock()
    }

    /// Number of words this processor sent.
    pub fn words_sent(&self) -> u64 {
        *self.words_sent.lock()
    }
}

/// A message in flight: `(source processor, word count, payload)`.
type Envelope<M> = (usize, u64, M);

/// The per-processor context handed to every worker closure.
pub struct ProcessorCtx<M> {
    id: usize,
    p: usize,
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    /// Messages received out of order, parked per source processor.
    parked: Vec<VecDeque<(u64, M)>>,
    stats: Arc<CommStats>,
}

impl<M: Send> ProcessorCtx<M> {
    /// This processor's id in `0..p`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processors in the machine.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The communication statistics handle of this processor.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Send `msg` (declared as `words` machine words) to processor `to`.
    ///
    /// Sending to oneself is allowed, which keeps collective patterns simple
    /// to write.
    ///
    /// # Panics
    /// Panics if `to >= p`.
    pub fn send(&self, to: usize, words: u64, msg: M) {
        assert!(
            to < self.p,
            "destination processor {to} out of range (p = {})",
            self.p
        );
        self.stats.record(words);
        self.senders[to]
            .send((self.id, words, msg))
            .expect("receiving processor hung up before the algorithm finished");
    }

    /// Receive the next message from any processor: `(source, payload)`.
    pub fn recv(&mut self) -> (usize, M) {
        // Drain parked messages first (oldest source first for fairness).
        for (src, queue) in self.parked.iter_mut().enumerate() {
            if let Some((_, msg)) = queue.pop_front() {
                return (src, msg);
            }
        }
        let (src, _, msg) = self.receiver.recv().expect("all senders disconnected");
        (src, msg)
    }

    /// Receive the next message sent by processor `from`, parking any
    /// messages from other processors that arrive in the meantime.
    pub fn recv_from(&mut self, from: usize) -> M {
        assert!(from < self.p, "source processor {from} out of range");
        if let Some((_, msg)) = self.parked[from].pop_front() {
            return msg;
        }
        loop {
            let (src, words, msg) = self.receiver.recv().expect("all senders disconnected");
            if src == from {
                return msg;
            }
            self.parked[src].push_back((words, msg));
        }
    }
}

/// The simulated machine: `p` processors over a virtual crossbar.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    p: usize,
    cost: CostModel,
}

impl Machine {
    /// Create a machine with `p` processors and the given cost model.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p > 0, "a machine needs at least one processor");
        Self { p, cost }
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Run `worker` on every processor concurrently and collect the results
    /// in processor order, together with each processor's [`CommStats`].
    ///
    /// The closure receives a mutable [`ProcessorCtx`] it can use to send and
    /// receive messages.  Worker panics propagate.
    pub fn run<M, R, F>(&self, worker: F) -> Vec<(R, Arc<CommStats>)>
    where
        M: Send,
        R: Send,
        F: Fn(&mut ProcessorCtx<M>) -> R + Send + Sync,
    {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..self.p).map(|_| unbounded()).unzip();
        let stats: Vec<Arc<CommStats>> = (0..self.p)
            .map(|_| Arc::new(CommStats::default()))
            .collect();

        let mut ctxs: Vec<ProcessorCtx<M>> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, receiver)| ProcessorCtx {
                id,
                p: self.p,
                senders: senders.clone(),
                receiver,
                parked: (0..self.p).map(|_| VecDeque::new()).collect(),
                stats: Arc::clone(&stats[id]),
            })
            .collect();
        // Drop the original senders so channels close when all workers finish.
        drop(senders);

        let worker = &worker;
        let results: Vec<R> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = ctxs
                .iter_mut()
                .map(|ctx| scope.spawn(move |_| worker(ctx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
        .expect("machine scope panicked");

        results.into_iter().zip(stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_run_and_return_in_processor_order() {
        let machine = Machine::new(4, CostModel::sp2());
        let out = machine.run::<(), usize, _>(|ctx| ctx.id() * 10);
        let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ring_message_passing() {
        let machine = Machine::new(4, CostModel::sp2());
        let out = machine.run::<u64, u64, _>(|ctx| {
            let next = (ctx.id() + 1) % ctx.p();
            ctx.send(next, 1, ctx.id() as u64);
            let (src, value) = ctx.recv();
            assert_eq!(src, (ctx.id() + ctx.p() - 1) % ctx.p());
            value
        });
        let values: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recv_from_parks_out_of_order_messages() {
        let machine = Machine::new(3, CostModel::sp2());
        let out = machine.run::<u64, u64, _>(|ctx| {
            match ctx.id() {
                0 => {
                    // Receive specifically from 2 first, then from 1.
                    let a = ctx.recv_from(2);
                    let b = ctx.recv_from(1);
                    a * 100 + b
                }
                id => {
                    ctx.send(0, 1, id as u64);
                    0
                }
            }
        });
        assert_eq!(out[0].0, 201);
    }

    #[test]
    fn gather_to_root_counts_stats() {
        let machine = Machine::new(4, CostModel::sp2());
        let out = machine.run::<Vec<u64>, u64, _>(|ctx| {
            if ctx.id() == 0 {
                let mut total = 0;
                for _ in 1..ctx.p() {
                    let (_, v) = ctx.recv();
                    total += v.iter().sum::<u64>();
                }
                total
            } else {
                let payload: Vec<u64> = vec![ctx.id() as u64; 10];
                ctx.send(0, 10, payload);
                0
            }
        });
        assert_eq!(out[0].0, 10 + 20 + 30);
        // Non-root processors each sent one 10-word message.
        for (id, (_, stats)) in out.iter().enumerate().skip(1) {
            assert_eq!(stats.messages_sent(), 1, "proc {id}");
            assert_eq!(stats.words_sent(), 10);
        }
    }

    #[test]
    fn a_processor_can_send_to_itself() {
        let machine = Machine::new(1, CostModel::sp2());
        let out = machine.run::<u64, u64, _>(|ctx| {
            ctx.send(0, 1000, 7);
            let (_, v) = ctx.recv();
            v
        });
        assert_eq!(out[0].0, 7);
        assert_eq!(out[0].1.words_sent(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        Machine::new(0, CostModel::sp2());
    }
}
